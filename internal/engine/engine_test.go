package engine

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"dirsim/internal/faults"
	"dirsim/internal/workload"
)

// executors returns both strategies so DAG-mechanics tests run under each.
func executors() []Executor {
	return []Executor{Sequential{}, Parallel{Workers: 8}}
}

func TestExecuteDependencyOrder(t *testing.T) {
	for _, exec := range executors() {
		t.Run(exec.Name(), func(t *testing.T) {
			e := New(Options{})
			a := &job{ID: "sim:a", Run: func(context.Context, []any) (any, error) { return 1, nil }}
			b := &job{ID: "sim:b", Run: func(context.Context, []any) (any, error) { return 2, nil }}
			c := &job{
				ID:   "sim:c",
				Deps: []*job{a, b},
				Run: func(_ context.Context, in []any) (any, error) {
					// Dependency outputs arrive in Deps order.
					return in[0].(int)*10 + in[1].(int), nil
				},
			}
			if err := e.execute(context.Background(), exec, c); err != nil {
				t.Fatal(err)
			}
			if c.err != nil {
				t.Fatal(c.err)
			}
			if c.out.(int) != 12 {
				t.Errorf("c output = %v, want 12", c.out)
			}
			for _, j := range []*job{a, b, c} {
				if j.started.IsZero() {
					t.Errorf("job %s has no start time", j.ID)
				}
			}
			if got := e.Stats().JobsRun; got != 3 {
				t.Errorf("JobsRun = %d, want 3", got)
			}
		})
	}
}

func TestExecuteSharedDependencyRunsOnce(t *testing.T) {
	for _, exec := range executors() {
		t.Run(exec.Name(), func(t *testing.T) {
			e := New(Options{})
			var runs atomic.Int64
			shared := &job{ID: "trace:shared", Run: func(context.Context, []any) (any, error) {
				runs.Add(1)
				return "s", nil
			}}
			mk := func(id string) *job {
				return &job{ID: id, Deps: []*job{shared},
					Run: func(_ context.Context, in []any) (any, error) { return in[0], nil }}
			}
			if err := e.execute(context.Background(), exec, mk("sim:x"), mk("sim:y"), mk("sim:z")); err != nil {
				t.Fatal(err)
			}
			if runs.Load() != 1 {
				t.Errorf("shared dependency ran %d times, want 1", runs.Load())
			}
		})
	}
}

// TestExecuteKeyedDedup: walk jobs of three batches over one spec,
// run together, compute it once; the other two wait on its flight and
// are cache hits, and a later batch is served from the cache.
func TestExecuteKeyedDedup(t *testing.T) {
	for _, exec := range executors() {
		t.Run(exec.Name(), func(t *testing.T) {
			e := New(Options{})
			spec := []SimSpec{{Trace: workload.POPSConfig(4, 5_000), Scheme: "Dragon"}}
			var jobs []*job
			for range 3 {
				per, release, err := e.planSpecs(spec)
				if err != nil {
					t.Fatal(err)
				}
				defer release()
				jobs = append(jobs, per[0].j)
			}
			if err := e.execute(context.Background(), exec, jobs...); err != nil {
				t.Fatal(err)
			}
			if s := e.Stats(); s.SimsRun != 1 || s.JobsRun != 4 { // each batch's trace job, one walk attempt
				t.Errorf("%d sims in %d attempts, want 1 in 4", s.SimsRun, s.JobsRun)
			}
			hits := 0
			first := output{j: jobs[0]}
			for _, j := range jobs {
				r, err := output{j: j}.result()
				if want, _ := first.result(); err != nil || r != want {
					t.Fatalf("job %s output = %p, %v, want the one result", j.ID, r, err)
				}
				if j.cacheHit {
					hits++
				}
			}
			if hits != 2 {
				t.Errorf("cache hits on %d jobs, want 2", hits)
			}
			// A later batch with the same spec is served entirely from cache.
			late, err := e.Results(context.Background(), exec, spec)
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := first.result(); late[0] != want {
				t.Error("late batch did not get the cached result")
			}
			if s := e.Stats(); s.SimsRun != 1 || s.CachedResults != 1 {
				t.Errorf("stats = %+v, want 1 sim and 1 cached result", s)
			}
		})
	}
}

// TestExecuteErrorPropagatesAndCancels: a failed job's error reaches its
// dependent, which is cancelled — recorded as failed, its body never
// run — under both executors.
func TestExecuteErrorPropagatesAndCancels(t *testing.T) {
	boom := errors.New("boom")
	for _, exec := range executors() {
		t.Run(exec.Name(), func(t *testing.T) {
			e := New(Options{})
			bad := &job{ID: "trace:bad", Run: func(context.Context, []any) (any, error) {
				return nil, boom
			}}
			var depRan atomic.Bool
			child := &job{ID: "sim:child", Deps: []*job{bad},
				Run: func(context.Context, []any) (any, error) {
					depRan.Store(true)
					return nil, nil
				}}
			if err := e.execute(context.Background(), exec, child); err != nil {
				t.Fatal(err)
			}
			if err := child.err; !errors.Is(err, boom) || !strings.Contains(err.Error(), "trace:bad") {
				t.Errorf("error = %v, want wrapped boom naming the job", err)
			}
			if depRan.Load() {
				t.Error("dependent of failed job still ran")
			}
		})
	}
}

func TestExecuteContextCancellation(t *testing.T) {
	e := New(Options{})
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	first := &job{ID: "trace:first", Run: func(context.Context, []any) (any, error) {
		cancel()
		close(release)
		return nil, nil
	}}
	var secondRan atomic.Bool
	second := &job{ID: "sim:second", Deps: []*job{first},
		Run: func(context.Context, []any) (any, error) {
			secondRan.Store(true)
			return nil, nil
		}}
	err := e.execute(ctx, Sequential{}, second)
	<-release
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error = %v, want context.Canceled", err)
	}
	if secondRan.Load() {
		t.Error("job ran after cancellation")
	}
}

// TestKeyedFailureIsRetriable: a failed simulation is evicted at
// publication, so a later batch computes the spec again.
func TestKeyedFailureIsRetriable(t *testing.T) {
	e := New(Options{Faults: faults.New(faults.Config{Seed: 1, Panic: 1})})
	spec := []SimSpec{{Trace: workload.POPSConfig(4, 5_000), Scheme: "Dir1NB"}}
	if _, err := e.Results(context.Background(), Sequential{}, spec); err == nil {
		t.Fatal("first batch should fail")
	}
	e.faults = nil
	rs, err := e.Results(context.Background(), Sequential{}, spec)
	if err != nil || rs[0] == nil {
		t.Fatalf("retry output = %v, %v, want a result", rs, err)
	}
	if s := e.Stats(); s.SimsRun != 1 || s.CachedResults != 1 {
		t.Errorf("%d sims, %d cached results, want 1 and 1", s.SimsRun, s.CachedResults)
	}
}

func TestNilExecutorDefaultsToSequential(t *testing.T) {
	e := New(Options{})
	j := &job{ID: "sim:solo", Run: func(context.Context, []any) (any, error) { return 7, nil }}
	if err := e.execute(context.Background(), nil, j); err != nil {
		t.Fatal(err)
	}
	if j.out.(int) != 7 {
		t.Errorf("output = %v, want 7", j.out)
	}
}

// TestFailedFlightWaiterIsNoHit pins the one rule both caches follow: a
// caller that waited on another's computation and received its error is
// not a cache hit. The flight is failed in place, without the eviction
// fulfill does first, which is the state a waiter that claimed it before
// the failure sees.
func TestFailedFlightWaiterIsNoHit(t *testing.T) {
	boom := errors.New("boom")
	failIn := func(c *flightCache, k Key) {
		f, _ := c.claim(k)
		f.err = boom
		close(f.done)
	}
	e := New(Options{})

	spec := []SimSpec{{Trace: workload.POPSConfig(4, 1_000), Scheme: "Dir1NB"}}
	failIn(e.results, spec[0].Key())
	per, release, err := e.planSpecs(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	j := per[0].j
	if err := e.execute(context.Background(), Sequential{}, j); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(j.err, boom) {
		t.Fatalf("result waiter: %v, want the flight's error", j.err)
	}
	if j.cacheHit || e.Stats().JobsRun != 0 {
		t.Error("result waiter on a failed flight is marked a cache hit or ran an attempt")
	}

	cfg := workload.StandardConfigs(4, 1_000)[0]
	failIn(e.traces, TraceKey(cfg))
	if _, err := e.Trace(context.Background(), cfg); !errors.Is(err, boom) {
		t.Fatalf("trace waiter: %v, want the flight's error", err)
	}

	if s := e.Stats(); s.CacheHits != 0 || s.CacheMisses != 0 {
		t.Errorf("hits/misses = %d/%d, want 0/0: neither waiter computed or received a value", s.CacheHits, s.CacheMisses)
	}
}
