package trace

import (
	"context"
	"errors"
	"fmt"
)

// Trace is an in-memory multiprocessor address trace: a time-ordered
// interleaving of references from every CPU, together with identifying
// metadata. The zero value is an empty, unnamed trace ready for Append.
type Trace struct {
	// Name identifies the workload (e.g. "pops", "thor", "pero").
	Name string
	// CPUs is the number of processors that may appear in the trace.
	// References must satisfy int(r.CPU) < CPUs.
	CPUs int
	// Refs is the ordered reference stream.
	Refs []Ref
}

// New returns an empty trace for the given workload name and CPU count.
func New(name string, cpus int) *Trace {
	return &Trace{Name: name, CPUs: cpus}
}

// Append adds one reference to the end of the trace.
func (t *Trace) Append(r Ref) { t.Refs = append(t.Refs, r) }

// Len returns the number of references in the trace.
func (t *Trace) Len() int { return len(t.Refs) }

// Validate checks internal consistency: every reference has a valid kind
// and a CPU index below t.CPUs. It returns the first problem found.
func (t *Trace) Validate() error {
	if t.CPUs <= 0 {
		return fmt.Errorf("trace %q: non-positive CPU count %d", t.Name, t.CPUs)
	}
	if t.CPUs > MaxCPUs {
		return fmt.Errorf("trace %q: CPU count %d exceeds limit %d", t.Name, t.CPUs, MaxCPUs)
	}
	for i, r := range t.Refs {
		if !r.Kind.Valid() {
			return fmt.Errorf("trace %q: ref %d: invalid kind %d", t.Name, i, r.Kind)
		}
		if int(r.CPU) >= t.CPUs {
			return fmt.Errorf("trace %q: ref %d: CPU %d out of range [0,%d)", t.Name, i, r.CPU, t.CPUs)
		}
	}
	return nil
}

// MaxCPUs bounds the number of processors in a trace. The limit comes from
// the uint8 CPU field plus headroom checks in the protocol engines' bitsets;
// it is far above anything the experiments use.
const MaxCPUs = 256

// ErrEmpty is returned by operations that need at least one reference.
var ErrEmpty = errors.New("trace: empty trace")

// Source is a stream of references, the input type accepted by the
// simulator: a trace's Iterator, or a chain of the wrappers in filter.go
// over one, so a filtered run need not materialize its trace twice (the
// codecs decode into a Trace, not a Source). References move in batches
// only: a reader pays one interface call per batch, never one per
// reference.
type Source interface {
	// NextBatch fills buf (len(buf) > 0) from the front of the stream and
	// returns the number of references written. It returns 0 only when
	// the stream is exhausted (and must keep returning 0 afterwards); a
	// short return with more data pending is allowed, so callers loop
	// until 0. The implementation must not retain buf after returning.
	NextBatch(buf []Ref) int
	// CPUCount returns the number of processors in the stream.
	CPUCount() int
}

// BatchSource is Source under its old name. The alias stays only because
// the frozen bench/sim_replay.go embeds it; it goes with that file's next
// revision.
type BatchSource = Source

// Batched returns src: every Source delivers batches now. The identity
// stays only because the frozen bench/sim_replay.go calls it; it goes
// with that file's next revision.
func Batched(src Source) Source { return src }

// Iterator returns a Source that replays the trace from the beginning.
func (t *Trace) Iterator() Source { return t.IteratorContext(context.Background()) }

// IteratorContext is Iterator for a replay ctx may stop: once ctx is done
// the Source is exhausted, so a reader of it, or of any chain of
// wrappers over it, stops at its next batch.
func (t *Trace) IteratorContext(ctx context.Context) Source {
	return &sliceSource{refs: t.Refs, cpus: t.CPUs, ctx: ctx}
}

type sliceSource struct {
	refs []Ref
	cpus int
	pos  int
	ctx  context.Context
}

// NextBatch copies up to len(buf) references out of the trace slice. A
// reader that only looks at a batch reads it in place through Next.
func (s *sliceSource) NextBatch(buf []Ref) int {
	if s.ctx.Err() != nil {
		return 0
	}
	n := copy(buf, s.refs[s.pos:])
	s.pos += n
	return n
}

// Next returns the next batch of src, at most n references (n > 0),
// empty only once src is exhausted. A trace's own Iterator or
// IteratorContext hands out a window onto the trace itself: no copy, and
// *buf is not touched. Every
// other Source fills *buf through NextBatch, allocating it with n
// references on first use. Either way the batch is valid until the
// next call, and it is read-only: a window aliases the trace, so a write
// to it rewrites the trace for every later reader.
func Next(src Source, buf *[]Ref, n int) []Ref {
	if s, ok := src.(*sliceSource); ok {
		if s.ctx.Err() != nil {
			return nil
		}
		w := s.refs[s.pos:]
		w = w[:min(n, len(w)):min(n, len(w))]
		s.pos += len(w)
		return w
	}
	if len(*buf) < n {
		*buf = make([]Ref, n)
	}
	return (*buf)[:src.NextBatch((*buf)[:n])]
}

func (s *sliceSource) CPUCount() int { return s.cpus }
