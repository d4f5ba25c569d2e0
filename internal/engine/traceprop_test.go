package engine

import (
	"context"
	"sync"
	"testing"
	"time"

	"dirsim/internal/faults"
	"dirsim/internal/obs"
	exectrace "dirsim/internal/obs/trace"
	"dirsim/internal/store"
	"dirsim/internal/workload"
)

// traceSink records, for every observer callback, which trace ID the
// callback's context carried — the property the journal's causal chain
// rests on.
type traceSink struct {
	mu sync.Mutex
	// traces maps callback name → trace IDs seen ("" = untraced ctx).
	traces map[string][]string
	// spans counts callbacks whose ctx carried a non-zero span ID.
	spans map[string]int
	// hits counts cache-hit JobFinished and hit TierFetched callbacks.
	cacheHits, tierHits int
	// tierKeys lists the key of every TierFetched and TierStored callback.
	tierKeys []string
}

func newTraceSink() *traceSink {
	return &traceSink{traces: map[string][]string{}, spans: map[string]int{}}
}

func (s *traceSink) record(ctx context.Context, event string) {
	tc, _ := obs.TraceFrom(ctx)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.traces[event] = append(s.traces[event], tc.Trace)
	if tc.Span != 0 {
		s.spans[event]++
	}
}

func (s *traceSink) JobScheduled(ctx context.Context, id, kind, key string) {
	s.record(ctx, "job.scheduled")
}
func (s *traceSink) JobStarted(ctx context.Context, id, kind, key string) {
	s.record(ctx, "job.start")
}
func (s *traceSink) JobFinished(ctx context.Context, id, kind, key string, d time.Duration, cacheHit bool, err error) {
	s.record(ctx, "job.finish")
	if cacheHit {
		s.mu.Lock()
		s.cacheHits++
		s.mu.Unlock()
	}
}
func (s *traceSink) TierFetched(ctx context.Context, key string, hit bool, d time.Duration) {
	s.record(ctx, "store.load")
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tierKeys = append(s.tierKeys, key)
	if hit {
		s.tierHits++
	}
}
func (s *traceSink) TierStored(ctx context.Context, key string, d time.Duration) {
	s.record(ctx, "store.store")
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tierKeys = append(s.tierKeys, key)
}
func (s *traceSink) JobRetried(ctx context.Context, id string, attempt int, backoff time.Duration, err error) {
	s.record(ctx, "job.retry")
}
func (s *traceSink) JobPanicked(ctx context.Context, id string, stack []byte) {
	s.record(ctx, "job.panic")
}
func (s *traceSink) CacheRejected(ctx context.Context, key string) {
	s.record(ctx, "cache.reject")
}

// The sink must receive every observer event the engine offers.
var (
	_ FaultObserver = (*traceSink)(nil)
	_ TierObserver  = (*traceSink)(nil)
)

// requireAll asserts every recorded trace for event equals want and that
// the event fired at all.
func (s *traceSink) requireAll(t *testing.T, event, want string) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	got := s.traces[event]
	if len(got) == 0 {
		t.Fatalf("no %s callbacks recorded", event)
	}
	for _, tr := range got {
		if tr != want {
			t.Fatalf("%s callback carried trace %q, want %q (all: %v)", event, tr, want, got)
		}
	}
}

func tracePropConfigs() []workload.Config { return workload.StandardConfigs(2, 5_000) }

// TestTracePropagationThroughJobsAndCache: every observer callback of a
// traced submission carries the submitter's trace ID — including the
// cache-hit JobFinished of a second, differently-traced submission of
// identical work, which must carry the SECOND caller's trace (the hit
// belongs to whoever asked).
func TestTracePropagationThroughJobsAndCache(t *testing.T) {
	sink := newTraceSink()
	e := New(Options{Observer: sink, Tracer: exectrace.New()})
	cfgs := tracePropConfigs()

	ctx1 := obs.WithTrace(context.Background(), obs.TraceContext{Trace: "run-1"})
	if _, _, err := e.SchemeOverTraces(ctx1, Sequential{}, "Dir0B", cfgs, false); err != nil {
		t.Fatal(err)
	}
	for _, ev := range []string{"job.scheduled", "job.start", "job.finish"} {
		sink.requireAll(t, ev, "run-1")
	}
	if sink.spans["job.finish"] == 0 {
		t.Error("no JobFinished ctx carried a span ID despite an attached tracer")
	}

	// Second submission, same work, new trace: everything is a cache hit
	// and every callback carries the new trace.
	sink2 := newTraceSink()
	e.obs = sink2 // same engine, fresh sink
	ctx2 := obs.WithTrace(context.Background(), obs.TraceContext{Trace: "run-2"})
	if _, _, err := e.SchemeOverTraces(ctx2, Sequential{}, "Dir0B", cfgs, false); err != nil {
		t.Fatal(err)
	}
	sink2.requireAll(t, "job.finish", "run-2")
	if sink2.cacheHits == 0 {
		t.Error("re-submission produced no cache-hit JobFinished callbacks")
	}
}

// TestTracePropagationThroughStoreTiers: durable-store loads and stores
// fire TierObserver callbacks carrying the requesting submission's
// trace — a cold engine's write-throughs carry the cold trace, and a
// second engine warm-starting from the same store carries its own. Every
// callback is for a result: per-spec or merged, never a trace.
func TestTracePropagationThroughStoreTiers(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := tracePropConfigs()
	results := map[string]bool{}
	var specKeys []Key
	for _, cfg := range cfgs {
		k := SimSpec{Trace: cfg, Scheme: "Dir0B"}.Key()
		specKeys = append(specKeys, k)
		results[k.String()] = true
	}
	results[mergeKey(specKeys).String()] = true
	requireResults := func(s *traceSink) {
		t.Helper()
		if len(s.tierKeys) == 0 {
			t.Fatal("no tier callbacks recorded")
		}
		for _, k := range s.tierKeys {
			if !results[k] {
				t.Errorf("tier callback for %s, which is not a result key", k)
			}
		}
	}

	cold := newTraceSink()
	e1 := New(Options{Observer: cold, Store: st})
	ctxCold := obs.WithTrace(context.Background(), obs.TraceContext{Trace: "cold"})
	if _, _, err := e1.SchemeOverTraces(ctxCold, Sequential{}, "Dir0B", cfgs, false); err != nil {
		t.Fatal(err)
	}
	cold.requireAll(t, "store.store", "cold")
	cold.requireAll(t, "store.load", "cold") // misses still fire, tagged
	requireResults(cold)

	warm := newTraceSink()
	e2 := New(Options{Observer: warm, Store: st})
	ctxWarm := obs.WithTrace(context.Background(), obs.TraceContext{Trace: "warm"})
	if _, _, err := e2.SchemeOverTraces(ctxWarm, Sequential{}, "Dir0B", cfgs, false); err != nil {
		t.Fatal(err)
	}
	warm.requireAll(t, "store.load", "warm")
	requireResults(warm)
	if warm.tierHits == 0 {
		t.Error("warm engine recorded no store tier hits")
	}
}

// TestTracePropagationThroughRetries: a job that fails and re-attempts
// keeps its submission's trace on every JobRetried callback.
func TestTracePropagationThroughRetries(t *testing.T) {
	sink := newTraceSink()
	e := New(Options{Observer: sink, Retries: 2, RetryBackoff: time.Millisecond,
		Faults: faults.New(faults.Config{Seed: 1, Spurious: 1})})
	ctx := obs.WithTrace(context.Background(), obs.TraceContext{Trace: "retry-run"})
	// Every attempt fails spuriously, so the run errors; the retry
	// callbacks along the way are what we are after.
	_, _, _ = e.SchemeOverTraces(ctx, Sequential{}, "Dir0B", tracePropConfigs(), false)
	sink.requireAll(t, "job.retry", "retry-run")
}

// TestUntracedSubmissionStaysUntraced: without a TraceContext the
// callbacks see an untraced context (no fabricated IDs).
func TestUntracedSubmissionStaysUntraced(t *testing.T) {
	sink := newTraceSink()
	e := New(Options{Observer: sink})
	if _, _, err := e.SchemeOverTraces(context.Background(), Sequential{}, "Dir0B", tracePropConfigs(), false); err != nil {
		t.Fatal(err)
	}
	sink.requireAll(t, "job.finish", "")
}
