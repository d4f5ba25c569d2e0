// Package exectrace is the repository's hierarchical execution tracer:
// spans carry IDs and parent IDs, record onto per-worker lanes, and
// export as Chrome trace-event JSON loadable in Perfetto or
// chrome://tracing, so a whole concurrent sweep — the job DAG, worker
// occupancy, back-pressure stalls, retries, injected faults, and sampled
// coherence-protocol events — is visible on one timeline.
//
// It lives under internal/obs/trace but is named exectrace because almost
// every caller already imports internal/trace (address traces); the
// distinct name keeps call sites unambiguous without aliases.
//
// # Lanes
//
// A Lane is an append-only event buffer owned by exactly one goroutine at
// a time: a worker acquires one with Tracer.Lane for the duration of a
// job, appends events to it without any locking, and returns it with
// Lane.Release. Released lanes are recycled LIFO, so lane IDs map onto
// "workers" the way a profiler's threads do — the trace shows pool
// occupancy directly. Export locks each lane briefly, which is safe
// because the CLIs export after the run's jobs have finished (and
// released their lanes).
//
// # Cost when disabled
//
// A nil *Tracer, *Lane, or *Span is valid and inert: every method is a
// nil-check no-op. Instrumented code therefore threads the tracer
// unconditionally and pays one predictable branch per event site when
// tracing is off — the property the engine's hot-path benchmarks assert.
package exectrace

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// SpanID identifies one span within a tracer. Zero means "no parent".
type SpanID uint64

// Arg is one key/value annotation on an event. The JSON tags are the
// wire form (ExportWire/Import) — short keys keep shipped span batches
// small.
type Arg struct {
	Key string `json:"k"`
	Val any    `json:"v"`
}

// Event is one recorded trace event. Timestamps and durations are
// nanoseconds since the tracer's epoch; the exporter converts to the
// microseconds Chrome trace-event JSON uses. PID is the process row the
// event renders under (0 means the tracer's own process, pid 1); events
// imported from a remote process carry that process's registered pid.
type Event struct {
	Name   string
	Cat    string
	Ph     byte // 'X' complete span, 'i' instant
	TS     int64
	Dur    int64
	PID    int
	TID    int
	ID     uint64
	Parent uint64
	Err    string
	Args   []Arg
}

// Tracer owns the run's lanes and issues span IDs. Create one per run
// with New; a nil *Tracer disables tracing at zero cost beyond nil
// checks.
type Tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	lanes []*Lane        // every lane ever created, in tid order
	free  []*Lane        // released lanes, reused LIFO
	procs map[int]string // registered remote processes, pid → name
}

// New returns an empty tracer whose timestamps count from now.
func New() *Tracer {
	return &Tracer{epoch: time.Now()}
}

// AllocID pre-mints a span ID without recording anything. The dist
// coordinator allocates its dispatch span's ID at lease-grant time — so
// the ID can cross the wire and the worker's spans can nest under it —
// and records the span itself (retro-dated, via Lane.RecordSpan) only
// when the lease resolves. Returns 0 on a nil tracer.
func (t *Tracer) AllocID() SpanID {
	if t == nil {
		return 0
	}
	return SpanID(t.ids.Add(1))
}

// RegisterProcess names a remote process row for the Chrome export.
// Imported events carrying pid render under this process name. pid 1 is
// the tracer's own process ("dirsim") and cannot be renamed.
func (t *Tracer) RegisterProcess(pid int, name string) {
	if t == nil || pid <= 1 {
		return
	}
	t.mu.Lock()
	if t.procs == nil {
		t.procs = make(map[int]string)
	}
	t.procs[pid] = name
	t.mu.Unlock()
}

// now returns nanoseconds since the tracer's epoch (monotonic).
func (t *Tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// at converts an absolute time to nanoseconds since the tracer's epoch,
// clamped at zero for times predating it (a retro-dated span cannot start
// before the timeline does).
func (t *Tracer) at(tm time.Time) int64 {
	d := tm.Sub(t.epoch).Nanoseconds()
	if d < 0 {
		return 0
	}
	return d
}

// Lane acquires an event lane for the calling goroutine, reusing the most
// recently released one (so lane IDs stay dense and map onto concurrent
// workers). The caller owns the lane until Release and is the only
// goroutine allowed to append to it. Returns nil on a nil tracer.
func (t *Tracer) Lane() *Lane {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	var l *Lane
	if n := len(t.free); n > 0 {
		l = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		l = &Lane{tr: t, tid: len(t.lanes) + 1}
		t.lanes = append(t.lanes, l)
	}
	t.mu.Unlock()
	// Held for the lane's whole tenure: appends under this ownership need
	// no per-event locking, and the exporter blocks on it only if asked
	// to export while the lane is still live.
	l.mu.Lock()
	return l
}

// Lane is one timeline row: an event buffer appended to lock-free by its
// owning goroutine. Acquire with Tracer.Lane, return with Release.
// Imported lanes (Tracer.Import) additionally carry the remote process's
// pid and a label; both are immutable after creation.
type Lane struct {
	tr    *Tracer
	tid   int
	pid   int    // 0 = the tracer's own process
	label string // "" = default "lane-NN" naming
	mu    sync.Mutex
	buf   []Event
}

// Release returns the lane to the tracer for reuse. The caller must not
// touch the lane (or spans opened on it) afterwards. No-op on nil.
func (l *Lane) Release() {
	if l == nil {
		return
	}
	l.mu.Unlock()
	l.tr.mu.Lock()
	l.tr.free = append(l.tr.free, l)
	l.tr.mu.Unlock()
}

// Span opens a span on the lane under the given parent (0 for a root).
// End records it. Returns nil on a nil lane.
func (l *Lane) Span(parent SpanID, cat, name string) *Span {
	if l == nil {
		return nil
	}
	return &Span{
		lane:   l,
		id:     l.tr.ids.Add(1),
		parent: uint64(parent),
		cat:    cat,
		name:   name,
		start:  l.tr.now(),
	}
}

// SpanAt is Span with an explicit start time, for regions that began
// before the caller could record them — an HTTP request's queue wait is
// spanned when a worker finally picks the work up, started at submission
// time. Starts predating the tracer's epoch clamp to it. Returns nil on
// a nil lane.
func (l *Lane) SpanAt(parent SpanID, cat, name string, start time.Time) *Span {
	if l == nil {
		return nil
	}
	return &Span{
		lane:   l,
		id:     l.tr.ids.Add(1),
		parent: uint64(parent),
		cat:    cat,
		name:   name,
		start:  l.tr.at(start),
	}
}

// Instant records a zero-duration marker event — a retry, a back-pressure
// stall, a sampled protocol event — under the given parent span. args
// follow the alternating key/value convention (non-string keys are
// skipped). No-op on a nil lane.
func (l *Lane) Instant(parent SpanID, cat, name string, args ...any) {
	if l == nil {
		return
	}
	ev := Event{
		Name:   name,
		Cat:    cat,
		Ph:     'i',
		TS:     l.tr.now(),
		PID:    l.pid,
		TID:    l.tid,
		ID:     l.tr.ids.Add(1),
		Parent: uint64(parent),
	}
	for i := 0; i+1 < len(args); i += 2 {
		k, ok := args[i].(string)
		if !ok {
			continue
		}
		ev.Args = append(ev.Args, Arg{Key: k, Val: args[i+1]})
	}
	l.buf = append(l.buf, ev)
}

// TID returns the lane's timeline row number (1-based).
func (l *Lane) TID() int {
	if l == nil {
		return 0
	}
	return l.tid
}

// RecordSpan appends a complete span with an explicit, pre-allocated ID
// (Tracer.AllocID) and absolute start/end times. This is how retro-dated
// cross-process spans land: the coordinator mints the dispatch span's ID
// at lease-grant time, ships it to the worker, and records the span here
// when the lease resolves — accept, reject, or expiry. Times predating
// the tracer's epoch clamp to it. No-op on a nil lane or zero id.
func (l *Lane) RecordSpan(id, parent SpanID, cat, name string, start, end time.Time, err string, args ...Arg) {
	if l == nil || id == 0 {
		return
	}
	ts := l.tr.at(start)
	dur := l.tr.at(end) - ts
	if dur < 0 {
		dur = 0
	}
	l.buf = append(l.buf, Event{
		Name:   name,
		Cat:    cat,
		Ph:     'X',
		TS:     ts,
		Dur:    dur,
		PID:    l.pid,
		TID:    l.tid,
		ID:     uint64(id),
		Parent: uint64(parent),
		Err:    err,
		Args:   args,
	})
}

// Span is one open timed region. It must be ended by the goroutine that
// owns its lane, before the lane is released.
type Span struct {
	lane   *Lane
	id     uint64
	parent uint64
	cat    string
	name   string
	start  int64
	args   []Arg
}

// ID returns the span's ID for parenting children (0 on nil).
func (s *Span) ID() SpanID {
	if s == nil {
		return 0
	}
	return SpanID(s.id)
}

// Arg annotates the span; annotations land in the exported event's args.
// Returns s for chaining. No-op on nil.
func (s *Span) Arg(key string, val any) *Span {
	if s == nil {
		return nil
	}
	s.args = append(s.args, Arg{Key: key, Val: val})
	return s
}

// End closes the span and appends it to its lane. A non-nil err is
// recorded on the event (and colors it in viewers that map args). No-op
// on nil.
func (s *Span) End(err error) {
	if s == nil {
		return
	}
	ev := Event{
		Name:   s.name,
		Cat:    s.cat,
		Ph:     'X',
		TS:     s.start,
		Dur:    s.lane.tr.now() - s.start,
		PID:    s.lane.pid,
		TID:    s.lane.tid,
		ID:     s.id,
		Parent: s.parent,
		Args:   s.args,
	}
	if err != nil {
		ev.Err = err.Error()
	}
	s.lane.buf = append(s.lane.buf, ev)
}

// ctxKey carries the lane/span pair through a context.
type ctxKey struct{}

type ctxVal struct {
	lane *Lane
	span SpanID
}

// NewContext returns a context carrying the lane and current span, so
// callees parent their spans correctly across call (and, for explicitly
// re-homed goroutines, lane) boundaries.
func NewContext(ctx context.Context, lane *Lane, span SpanID) context.Context {
	return context.WithValue(ctx, ctxKey{}, ctxVal{lane: lane, span: span})
}

// FromContext returns the lane and span recorded by NewContext, or
// (nil, 0) when the context carries none — the disabled-tracing case.
func FromContext(ctx context.Context) (*Lane, SpanID) {
	v, ok := ctx.Value(ctxKey{}).(ctxVal)
	if !ok {
		return nil, 0
	}
	return v.lane, v.span
}

// tracerKey carries a *Tracer through a context, independently of the
// lane/span pair: the tracer names where new lanes come from, the
// lane/span pair names where the caller currently is.
type tracerKey struct{}

// WithTracer returns a context carrying the tracer, so work scheduled on
// behalf of a request records onto that request's timeline: the engine
// opens job lanes from the context's tracer when it has none of its own.
// A nil tracer returns ctx unchanged.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey{}, t)
}

// TracerFrom returns the tracer carried by ctx, or nil when there is
// none.
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}
