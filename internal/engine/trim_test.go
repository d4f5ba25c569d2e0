package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"dirsim/internal/obs"
	"dirsim/internal/workload"
)

// TestCacheOccupancyGauges: the engine.cache.traces and
// engine.cache.results gauges follow every entry in and out of the two
// caches (a fulfill, a failed job's eviction, a verifying reader's
// eviction of a corrupted value, Trim), and Stats reports the same
// numbers. A Trim that runs while a computation is in flight leaves that
// flight alone, and the trace it keeps is still a hit.
func TestCacheOccupancyGauges(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Options{Metrics: reg, Verify: true})
	traces, results := reg.Gauge("engine.cache.traces"), reg.Gauge("engine.cache.results")
	check := func(step string, wantTraces, wantResults int) {
		t.Helper()
		if got := [2]int64{traces.Value(), results.Value()}; got != [2]int64{int64(wantTraces), int64(wantResults)} {
			t.Errorf("%s: gauges traces=%d results=%d, want %d %d", step, got[0], got[1], wantTraces, wantResults)
		}
		if s := e.Stats(); s.CachedTraces != int(traces.Value()) || s.CachedResults != int(results.Value()) {
			t.Errorf("%s: Stats CachedTraces=%d CachedResults=%d, gauges say %d %d",
				step, s.CachedTraces, s.CachedResults, traces.Value(), results.Value())
		}
	}
	ctx := context.Background()
	cfgs := workload.StandardConfigs(4, 1_000)
	check("fresh engine", 0, 0)

	for _, cfg := range cfgs[:2] {
		if _, err := e.Trace(ctx, cfg); err != nil {
			t.Fatal(err)
		}
	}
	check("two traces fulfilled", 2, 0)
	spec := []SimSpec{{Trace: cfgs[0], Scheme: "Dir0B"}}
	res, err := e.Results(ctx, Sequential{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	check("one result fulfilled", 2, 1)

	fail := &job{ID: "sim:fail", Key: hashOf("fail"), Run: func(context.Context, []any) (any, error) {
		return nil, errors.New("boom")
	}}
	if err := e.execute(ctx, nil, fail); err != nil || fail.err == nil {
		t.Fatalf("failing job: run %v, job %v", err, fail.err)
	}
	check("failed job evicted at fulfill", 2, 1)

	// A verifying reader evicts a corrupted entry and recomputes it: one
	// out, one in.
	res[0].Counts.Total++
	tr, _ := e.Trace(ctx, cfgs[1])
	tr.Refs[0].Addr ^= 1
	if _, err := e.Results(ctx, Sequential{}, spec); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Trace(ctx, cfgs[1]); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().CacheRejected; got != 2 {
		t.Fatalf("CacheRejected = %d, want the corrupted result and trace", got)
	}
	check("corrupted entries evicted and recomputed", 2, 1)

	// Trim while a keyed job is still in its body.
	started, release := make(chan struct{}), make(chan struct{})
	slow := &job{ID: "sim:slow", Key: hashOf("slow"), Run: func(context.Context, []any) (any, error) {
		close(started)
		<-release
		return 42, nil
	}}
	done := make(chan error, 1)
	go func() { done <- e.execute(ctx, nil, slow) }()
	<-started
	check("job in flight", 2, 2)
	e.Trim(cfgs[0])
	check("trimmed around the flight", 1, 1)
	if !e.results.peek(slow.Key) {
		t.Fatal("Trim removed a flight still in progress")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if slow.err != nil || slow.out != 42 {
		t.Fatalf("in-flight job delivered %v, %v after Trim, want 42", slow.out, slow.err)
	}
	check("flight fulfilled after trim", 1, 1)

	generated := e.Stats().TracesGenerated
	if _, err := e.Trace(ctx, cfgs[0]); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().TracesGenerated; got != generated {
		t.Errorf("the kept trace was regenerated (%d generations, want %d)", got, generated)
	}
	e.Trim(cfgs[2])
	check("trimmed to a trace it does not hold", 0, 0)
	if _, err := e.Trace(ctx, cfgs[0]); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().TracesGenerated; got != generated+1 {
		t.Errorf("a trimmed trace served without regenerating (%d generations, want %d)", got, generated+1)
	}
	check("trimmed trace regenerated", 1, 0)
}

// TestTrimDuringLookups: Trim racing concurrent Results and Trace calls
// never changes an answer, only how often one is recomputed, and leaves
// the gauges equal to what the caches hold.
func TestTrimDuringLookups(t *testing.T) {
	ctx := context.Background()
	cfgs := workload.StandardConfigs(4, 1_000)
	var specs []SimSpec
	for _, cfg := range cfgs {
		for _, s := range []string{"Dir0B", "Dir1NB", "WTI"} {
			specs = append(specs, SimSpec{Trace: cfg, Scheme: s})
		}
	}
	want, err := New(Options{}).Results(ctx, Sequential{}, specs)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{})
	stop := make(chan struct{})
	trimmed := make(chan struct{})
	go func() {
		defer close(trimmed)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				e.Trim(cfgs[i%len(cfgs)])
			}
		}
	}()
	errs := make(chan error, 4) // one per looker-up
	for g := 0; g < cap(errs); g++ {
		go func() {
			for round := 0; round < 5; round++ {
				got, err := e.Results(ctx, Parallel{Workers: 2}, specs)
				if err != nil {
					errs <- err
					return
				}
				for i := range want {
					if got[i].Fingerprint() != want[i].Fingerprint() {
						errs <- fmt.Errorf("spec %d diverged after a concurrent Trim", i)
						return
					}
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < cap(errs); g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	close(stop)
	<-trimmed
	if s := e.Stats(); s.CachedTraces != len(e.traces.m) || s.CachedResults != len(e.results.m) {
		t.Errorf("gauges say %d traces and %d results, the caches hold %d and %d",
			s.CachedTraces, s.CachedResults, len(e.traces.m), len(e.results.m))
	}
}
