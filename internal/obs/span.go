package obs

import (
	"sort"
	"sync"
	"time"
)

// Phases accumulates wall time per named phase of a run — "generate",
// "simulate", "merge", "experiment" — so a finished run can print where
// its time went. The zero value is ready to use; all methods are safe
// for concurrent use.
type Phases struct {
	mu sync.Mutex
	m  map[string]*PhaseStat
}

// PhaseStat is the accumulated time of one phase.
type PhaseStat struct {
	Phase string        `json:"phase"`
	Count int64         `json:"count"`
	Total time.Duration `json:"total_ns"`
}

// Record adds one timed region to the phase.
func (p *Phases) Record(phase string, d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.m == nil {
		p.m = make(map[string]*PhaseStat)
	}
	s, ok := p.m[phase]
	if !ok {
		s = &PhaseStat{Phase: phase}
		p.m[phase] = s
	}
	s.Count++
	s.Total += d
}

// Stats returns a copy of every phase, largest total first (ties broken
// by name, so the order is deterministic).
func (p *Phases) Stats() []PhaseStat {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]PhaseStat, 0, len(p.m))
	for _, s := range p.m {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Phase < out[j].Phase
	})
	return out
}

// Span is one timed region of a run, opened by Recorder.StartSpan and
// closed by End.
type Span struct {
	// Phase groups the span into the per-phase breakdown; Name
	// identifies the specific region ("table4", "sim:Dir0B@pops").
	Phase, Name string

	start  time.Time
	phases *Phases
	jnl    *Journal
}

// End closes the span, records its duration into the attached phase
// breakdown and journal (if any), and returns the duration. A non-nil
// err marks the journal event as failed.
func (s *Span) End(err error) time.Duration {
	d := time.Since(s.start)
	if s.phases != nil {
		s.phases.Record(s.Phase, d)
	}
	if s.jnl != nil {
		if err != nil {
			s.jnl.Error(s.Phase+".finish", err, "name", s.Name, "dur_us", d.Microseconds())
		} else {
			s.jnl.Event(s.Phase+".finish", "name", s.Name, "dur_us", d.Microseconds())
		}
	}
	return d
}
