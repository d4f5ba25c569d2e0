package obs

import (
	"context"
	"time"
)

// Recorder binds a Registry, an optional Journal, and a per-phase time
// breakdown into one sink. Its method set structurally satisfies the
// execution engine's Observer interface (the engine imports obs, not the
// other way round), and the report pipeline opens experiment spans on it,
// so one recorder sees a whole run: every engine job, every experiment
// render.
type Recorder struct {
	reg    *Registry
	jnl    *Journal
	phases Phases
}

// NewRecorder builds a recorder over the registry and journal; a nil
// registry gets a private one, a nil journal disables event emission
// (metrics and phases still accumulate).
func NewRecorder(reg *Registry, jnl *Journal) *Recorder {
	if reg == nil {
		reg = NewRegistry()
	}
	return &Recorder{reg: reg, jnl: jnl}
}

// Registry returns the recorder's instrument registry.
func (r *Recorder) Registry() *Registry { return r.reg }

// Journal returns the recorder's journal (nil when none is attached).
func (r *Recorder) Journal() *Journal { return r.jnl }

// Phases returns the per-phase time breakdown accumulated so far.
func (r *Recorder) Phases() []PhaseStat { return r.phases.Stats() }

// StartSpan opens a span whose End records into the recorder's phase
// breakdown and journal; a "<phase>.start" event is emitted immediately.
func (r *Recorder) StartSpan(phase, name string) *Span {
	r.jnl.Event(phase+".start", "name", name)
	return &Span{Phase: phase, Name: name, start: time.Now(), phases: &r.phases, jnl: r.jnl}
}

// phaseOf maps an engine job kind onto the run's phase breakdown.
func phaseOf(kind string) string {
	switch kind {
	case "trace":
		return "generate"
	case "sim", "protocol":
		return "simulate"
	case "merge":
		return "merge"
	case "":
		return "other"
	}
	return kind
}

// JobScheduled implements the engine's Observer: one call per DAG node
// when a batch is submitted. Journal events carry the trace identity the
// context brings (see TraceContext), tying engine work back to the
// request or run that caused it.
func (r *Recorder) JobScheduled(ctx context.Context, id, kind, key string) {
	r.reg.Counter("engine.jobs.scheduled").Inc()
	r.jnl.Event("job.scheduled", traceAttrs(ctx, []any{"job", id, "kind", kind, "key", key})...)
}

// JobStarted implements the engine's Observer.
func (r *Recorder) JobStarted(ctx context.Context, id, kind, key string) {
	r.jnl.Event("job.start", traceAttrs(ctx, []any{"job", id, "kind", kind, "key", key})...)
}

// JobFinished implements the engine's Observer: it closes the job's
// span, feeding the per-phase breakdown, a per-kind duration histogram,
// and the journal.
func (r *Recorder) JobFinished(ctx context.Context, id, kind, key string, d time.Duration, cacheHit bool, err error) {
	r.phases.Record(phaseOf(kind), d)
	r.reg.Histogram("engine.job."+phaseOf(kind)+".us", DurationBucketsUS).ObserveDuration(d)
	attrs := traceAttrs(ctx, []any{"job", id, "kind", kind, "key", key,
		"dur_us", d.Microseconds(), "cache_hit", cacheHit})
	if err != nil {
		r.jnl.Error("job.finish", err, attrs...)
		return
	}
	r.jnl.Event("job.finish", attrs...)
}

// TierFetched implements the engine's TierObserver: one event per
// durable-store result lookup, hit or clean miss. Counting stays with the
// store itself (store.* counters); this is the journal's causal record.
// The tier holds results only; the "kind" field stays in the journal
// schema for its readers.
func (r *Recorder) TierFetched(ctx context.Context, key string, hit bool, d time.Duration) {
	r.jnl.Event("store.load", traceAttrs(ctx, []any{"kind", "result", "key", key,
		"hit", hit, "dur_us", d.Microseconds()})...)
}

// TierStored implements the engine's TierObserver: one event per
// write-through to the durable store.
func (r *Recorder) TierStored(ctx context.Context, key string, d time.Duration) {
	r.jnl.Event("store.store", traceAttrs(ctx, []any{"kind", "result", "key", key,
		"dur_us", d.Microseconds()})...)
}

// The failure-path events below implement the engine's FaultObserver.
// They journal only: the engine's own registry counters (engine.jobs.
// panics/retries/timeouts, engine.cache.rejected) already count these, so
// counting here again would double-report on a shared registry.

// JobRetried records a retry decision: the attempt that failed, the
// backoff about to be taken, and the triggering error.
func (r *Recorder) JobRetried(ctx context.Context, id string, attempt int, backoff time.Duration, err error) {
	r.jnl.Error("job.retry", err, traceAttrs(ctx, []any{"job", id, "attempt", attempt,
		"backoff_us", backoff.Microseconds()})...)
}

// JobPanicked records a recovered job-body panic with its stack, so a
// crashed simulator is diagnosable from the journal alone.
func (r *Recorder) JobPanicked(ctx context.Context, id string, stack []byte) {
	r.jnl.Event("job.panic", traceAttrs(ctx, []any{"job", id, "stack", string(stack)})...)
}

// CacheRejected records a cached entry failing integrity revalidation.
func (r *Recorder) CacheRejected(ctx context.Context, key string) {
	r.jnl.Event("cache.reject", traceAttrs(ctx, []any{"key", key})...)
}
