package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

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
			a := &Job{ID: "a", Run: func(context.Context, []any) (any, error) { return 1, nil }}
			b := &Job{ID: "b", Run: func(context.Context, []any) (any, error) { return 2, nil }}
			c := &Job{
				ID:   "c",
				Deps: []*Job{a, b},
				Run: func(_ context.Context, in []any) (any, error) {
					// Dependency outputs arrive in Deps order.
					return in[0].(int)*10 + in[1].(int), nil
				},
			}
			if err := e.Execute(context.Background(), exec, c); err != nil {
				t.Fatal(err)
			}
			out, err := c.Output()
			if err != nil {
				t.Fatal(err)
			}
			if out.(int) != 12 {
				t.Errorf("c output = %v, want 12", out)
			}
			for _, j := range []*Job{a, b, c} {
				m := j.Metrics()
				if m.Started.IsZero() || m.Finished.Before(m.Started) {
					t.Errorf("job %s has unpopulated metrics: %+v", j.ID, m)
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
			shared := &Job{ID: "shared", Run: func(context.Context, []any) (any, error) {
				runs.Add(1)
				return "s", nil
			}}
			mk := func(id string) *Job {
				return &Job{ID: id, Deps: []*Job{shared},
					Run: func(_ context.Context, in []any) (any, error) { return in[0], nil }}
			}
			if err := e.Execute(context.Background(), exec, mk("x"), mk("y"), mk("z")); err != nil {
				t.Fatal(err)
			}
			if runs.Load() != 1 {
				t.Errorf("shared dependency ran %d times, want 1", runs.Load())
			}
		})
	}
}

func TestExecuteKeyedDedup(t *testing.T) {
	for _, exec := range executors() {
		t.Run(exec.Name(), func(t *testing.T) {
			e := New(Options{})
			var runs atomic.Int64
			k := hashOf("test", "dedup")
			mk := func(id string) *Job {
				return &Job{ID: id, Key: k, Run: func(context.Context, []any) (any, error) {
					runs.Add(1)
					return 42, nil
				}}
			}
			jobs := []*Job{mk("j1"), mk("j2"), mk("j3")}
			if err := e.Execute(context.Background(), exec, jobs...); err != nil {
				t.Fatal(err)
			}
			if runs.Load() != 1 {
				t.Errorf("keyed job bodies ran %d times, want 1", runs.Load())
			}
			hits := 0
			for _, j := range jobs {
				out, err := j.Output()
				if err != nil || out.(int) != 42 {
					t.Fatalf("job %s output = %v, %v", j.ID, out, err)
				}
				if j.Metrics().CacheHit {
					hits++
				}
			}
			if hits != 2 {
				t.Errorf("cache-hit metrics on %d jobs, want 2", hits)
			}
			// A later batch with the same key is served entirely from cache.
			late := mk("late")
			if err := e.Execute(context.Background(), exec, late); err != nil {
				t.Fatal(err)
			}
			if runs.Load() != 1 {
				t.Errorf("cached key re-ran the body (total runs %d)", runs.Load())
			}
			if out, _ := late.Output(); out.(int) != 42 {
				t.Errorf("late output = %v, want 42", out)
			}
			s := e.Stats()
			if s.CacheHits != 3 || s.CachedResults != 1 {
				t.Errorf("stats = %+v, want 3 hits and 1 cached result", s)
			}
		})
	}
}

func TestExecuteCycleRejected(t *testing.T) {
	e := New(Options{})
	a := &Job{ID: "a", Run: func(context.Context, []any) (any, error) { return nil, nil }}
	b := &Job{ID: "b", Deps: []*Job{a}, Run: func(context.Context, []any) (any, error) { return nil, nil }}
	a.Deps = []*Job{b}
	err := e.Execute(context.Background(), Sequential{}, a)
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle not rejected: %v", err)
	}
}

func TestExecuteNilRunRejected(t *testing.T) {
	e := New(Options{})
	err := e.Execute(context.Background(), Sequential{}, &Job{ID: "empty"})
	if err == nil || !strings.Contains(err.Error(), "no Run function") {
		t.Errorf("nil Run not rejected: %v", err)
	}
}

func TestExecuteErrorPropagatesAndCancels(t *testing.T) {
	boom := errors.New("boom")
	for _, exec := range executors() {
		t.Run(exec.Name(), func(t *testing.T) {
			e := New(Options{})
			bad := &Job{ID: "bad", Run: func(context.Context, []any) (any, error) {
				return nil, boom
			}}
			var depRan atomic.Bool
			child := &Job{ID: "child", Deps: []*Job{bad},
				Run: func(context.Context, []any) (any, error) {
					depRan.Store(true)
					return nil, nil
				}}
			err := e.Execute(context.Background(), exec, child)
			if !errors.Is(err, boom) || !strings.Contains(err.Error(), "bad") {
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
	first := &Job{ID: "first", Run: func(context.Context, []any) (any, error) {
		cancel()
		close(release)
		return nil, nil
	}}
	var secondRan atomic.Bool
	second := &Job{ID: "second", Deps: []*Job{first},
		Run: func(context.Context, []any) (any, error) {
			secondRan.Store(true)
			return nil, nil
		}}
	err := e.Execute(ctx, Sequential{}, second)
	<-release
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error = %v, want context.Canceled", err)
	}
	if secondRan.Load() {
		t.Error("job ran after cancellation")
	}
}

func TestKeyedFailureIsRetriable(t *testing.T) {
	e := New(Options{})
	k := hashOf("test", "retry")
	var attempts atomic.Int64
	mk := func() *Job {
		return &Job{ID: "flaky", Key: k, Run: func(context.Context, []any) (any, error) {
			if attempts.Add(1) == 1 {
				return nil, fmt.Errorf("transient")
			}
			return "ok", nil
		}}
	}
	if err := e.Execute(context.Background(), Sequential{}, mk()); err == nil {
		t.Fatal("first attempt should fail")
	}
	// The failure must have been evicted so the key can be recomputed.
	j := mk()
	if err := e.Execute(context.Background(), Sequential{}, j); err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if out, _ := j.Output(); out.(string) != "ok" {
		t.Errorf("retry output = %v, want ok", out)
	}
	if attempts.Load() != 2 {
		t.Errorf("attempts = %d, want 2", attempts.Load())
	}
}

func TestNilExecutorDefaultsToSequential(t *testing.T) {
	e := New(Options{})
	j := &Job{ID: "solo", Run: func(context.Context, []any) (any, error) { return 7, nil }}
	if err := e.Execute(context.Background(), nil, j); err != nil {
		t.Fatal(err)
	}
	if out, _ := j.Output(); out.(int) != 7 {
		t.Errorf("output = %v, want 7", out)
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

	k := hashOf("test", "failed-flight")
	failIn(e.results, k)
	j := &Job{ID: "waiter", Key: k, Run: func(context.Context, []any) (any, error) {
		t.Error("a waiter ran the body of a claimed key")
		return nil, nil
	}}
	if err := e.Execute(context.Background(), Sequential{}, j); !errors.Is(err, boom) {
		t.Fatalf("result waiter: %v, want the flight's error", err)
	}
	if j.Metrics().CacheHit {
		t.Error("result waiter on a failed flight is marked a cache hit")
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
