package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Layer names: one per package the harness calls into, plus the harness
// itself. They key the ledger (ledger.ms_per_op.<layer>) and tag every
// span.
const (
	layerHarness  = "harness"
	layerTrace    = "trace"
	layerCore     = "core"
	layerSim      = "sim"
	layerWorkload = "workload"
	layerEngine   = "engine"
	layerService  = "service"
	layerDist     = "dist"
	layerReport   = "report"
)

var ledgerLayers = []string{
	layerHarness, layerTrace, layerCore, layerSim, layerWorkload,
	layerEngine, layerService, layerDist, layerReport,
}

// span is one timed call into a layer, recorded by the harness around
// the call (never from inside the program under test).
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // since tracer creation
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for an op root
	Op     int    `json:"op"`     // index of the op this span belongs to
}

// tracer keeps a traced run's spans in memory. A nil *tracer is the
// untraced run: every method is a no-op, so call sites need no branch
// and the untraced path pays one nil check.
//
// Work that the program does on its own goroutines (engine jobs, worker
// HTTP calls) reports through observer hooks that cannot know which
// harness call caused it. The workloads are closed loops with one client,
// so at any instant one harness span is the cause: the scope. Hooks
// parent their spans under the scope current when they report.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span

	scope atomic.Int64 // span index async hooks parent under; -1 outside ops
	op    atomic.Int64 // current op index
	nops  int
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.scope.Store(-1)
	return t
}

// beginOp opens the root span of the next op and makes it the scope.
func (t *tracer) beginOp(name string) int {
	if t == nil {
		return -1
	}
	t.op.Store(int64(t.nops))
	t.nops++
	id := t.begin(name, layerHarness, -1)
	t.scope.Store(int64(id))
	return id
}

// endOp closes an op root; hooks reporting afterwards are dropped.
func (t *tracer) endOp(id int) {
	if t == nil {
		return
	}
	t.end(id)
	t.scope.Store(-1)
}

// begin opens a span on the calling goroutine under parent.
func (t *tracer) begin(name, layer string, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: now, End: now,
		Parent: parent, Op: int(t.op.Load())})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// child opens a span under the current scope without becoming the scope:
// a leaf call on the client goroutine. Outside an op nothing is recorded.
func (t *tracer) child(name, layer string) int {
	if t == nil || t.scope.Load() < 0 {
		return -1
	}
	return t.begin(name, layer, int(t.scope.Load()))
}

// enter opens a span under the current scope and makes it the scope;
// the returned func closes it and restores the previous scope. It is for
// the client goroutine's own serial calls. Outside an op (per-rep steps
// such as the dedup resubmission) nothing is recorded.
func (t *tracer) enter(name, layer string) func() {
	if t == nil || t.scope.Load() < 0 {
		return func() {}
	}
	prev := t.scope.Load()
	id := t.begin(name, layer, int(prev))
	t.scope.Store(int64(id))
	return func() {
		t.end(id)
		t.scope.Store(prev)
	}
}

// async records a finished span of duration d ending now, reported by a
// hook on one of the program's goroutines, under the current scope.
func (t *tracer) async(name, layer string, d time.Duration) {
	if t == nil {
		return
	}
	parent := int(t.scope.Load())
	if parent < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: now - int64(d), End: now,
		Parent: parent, Op: int(t.op.Load())})
	t.mu.Unlock()
}

// ledger is the per-layer account of a traced run.
type ledger struct {
	ops int
	// opWall is the summed duration of the op roots; selfTime the summed
	// self time per layer, where a span's self time is its duration minus
	// the part of it its children cover. With concurrent children the
	// layers can sum to more than opWall: that is busy time, not a share.
	opWall   time.Duration
	selfTime map[string]time.Duration
	// unattributed is the op roots' own self time: wall the harness could
	// charge to no call into any layer.
	unattributed time.Duration
	// byName collects span durations per span name, for the metrics that
	// are a median over one kind of call.
	byName map[string][]float64
}

// account computes the ledger over every recorded span.
func (t *tracer) account() ledger {
	l := ledger{selfTime: map[string]time.Duration{}, byName: map[string][]float64{}}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i, s := range spans {
		dur := s.End - s.Start
		self := dur - covered(spans, children[i], s.Start, s.End)
		l.byName[s.Name] = append(l.byName[s.Name], float64(dur))
		if s.Parent < 0 {
			l.ops++
			l.opWall += time.Duration(dur)
			l.unattributed += time.Duration(self)
		}
		l.selfTime[s.Layer] += time.Duration(self)
	}
	return l
}

// covered returns how much of [lo, hi) the union of the given spans
// covers.
func covered(spans []span, ids []int, lo, hi int64) int64 {
	if len(ids) == 0 {
		return 0
	}
	sort.Slice(ids, func(a, b int) bool { return spans[ids[a]].Start < spans[ids[b]].Start })
	var total int64
	end := lo
	for _, id := range ids {
		s, e := spans[id].Start, spans[id].End
		if s < end {
			s = end
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			end = e
		}
	}
	return total
}
