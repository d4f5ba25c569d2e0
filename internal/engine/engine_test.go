package engine

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dirsim/internal/faults"
	"dirsim/internal/obs"
	"dirsim/internal/sim"
	"dirsim/internal/workload"
)

// executors returns both strategies so batch-mechanics tests run under
// each.
func executors() []Executor {
	return []Executor{Sequential{}, Parallel{Workers: 8}}
}

// remoteFunc is a Remote made of one function: what a test needs to hand
// a walk job's attempts a body of its own.
type remoteFunc func(context.Context, []SimSpec) ([]*sim.Result, []error)

func (f remoteFunc) SimulateRemote(ctx context.Context, specs []SimSpec) ([]*sim.Result, []error) {
	return f(ctx, specs)
}

// unreachable returns the Config of a trace adopted into e and trimmed
// away: nothing can generate it, so Engine.Trace fails for it with
// workload.ErrNotGenerable.
func unreachable(t *testing.T, e *Engine) workload.Config {
	t.Helper()
	cfg, err := e.Adopt(adoptedTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	e.Trim(workload.Config{})
	return cfg
}

// planJobs plans specs as one batch and returns its walk jobs and the
// outputs per spec.
func planJobs(t *testing.T, e *Engine, specs []SimSpec) ([]*job, []output) {
	t.Helper()
	per, jobs, release, err := e.planSpecs(specs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(release)
	return jobs, per
}

// TestExecuteDependencyOrder: a walk job has its trace before it starts —
// each workload's trace.generate line precedes the job.start of every
// walk over it — and every job starts and runs one attempt.
func TestExecuteDependencyOrder(t *testing.T) {
	pops, thor := workload.POPSConfig(4, 5_000), workload.THORConfig(4, 5_000)
	specs := []SimSpec{{Trace: pops, Scheme: "Dir1NB"}, {Trace: pops, Scheme: "Dragon"}, {Trace: thor, Scheme: "Dir1NB"}}
	for _, exec := range executors() {
		t.Run(exec.Name(), func(t *testing.T) {
			e := New(Options{})
			jobs, per := planJobs(t, e, specs)
			var buf bytes.Buffer
			if err := e.execute(journaled(&buf, ""), exec, jobs...); err != nil {
				t.Fatal(err)
			}
			generated := map[string]bool{}
			starts := 0
			for _, l := range journalLines(t, buf.Bytes()) {
				switch l["msg"] {
				case "trace.generate":
					generated[l["name"].(string)] = true
				case "job.start":
					starts++
					id := l["job"].(string)
					if w := id[strings.Index(id, "@")+1:]; !generated["generate:"+w] {
						t.Errorf("job %s started before its trace was generated", id)
					}
				}
			}
			if starts != len(jobs) {
				t.Errorf("%d job.start lines, want %d", starts, len(jobs))
			}
			for i, o := range per {
				if r, err := o.result(); err != nil || r == nil {
					t.Errorf("%s: %v, %v", specs[i].Name(), r, err)
				}
			}
			for _, j := range jobs {
				if j.started.IsZero() {
					t.Errorf("job %s has no start time", j.ID)
				}
			}
			if s := e.Stats(); s.JobsRun != 3 || s.TracesGenerated != 2 {
				t.Errorf("JobsRun = %d, TracesGenerated = %d, want 3 and 2", s.JobsRun, s.TracesGenerated)
			}
		})
	}
}

// TestExecuteSharedDependencyRunsOnce: many walks over one trace, in
// three concurrent batches, generate it once, and that generation is the
// one observation of engine.job.generate.us.
func TestExecuteSharedDependencyRunsOnce(t *testing.T) {
	cfg := workload.POPSConfig(4, 5_000)
	batches := [][]SimSpec{
		{{Trace: cfg, Scheme: "Dir1NB"}, {Trace: cfg, Scheme: "Dragon"}},
		{{Trace: cfg, Scheme: "Dir0B", Filter: FilterNoSpins}, {Trace: cfg, Scheme: "Dir0B", Check: true}},
		{{Trace: cfg, Scheme: "Dir2NB"}, {Trace: cfg, Scheme: "Dir0B", BlockBytes: 64}},
	}
	for _, exec := range executors() {
		t.Run(exec.Name(), func(t *testing.T) {
			reg := obs.NewRegistry()
			e := New(Options{Metrics: reg})
			var wg sync.WaitGroup
			for _, specs := range batches {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := e.Results(context.Background(), exec, specs); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
			if s := e.Stats(); s.TracesGenerated != 1 || s.Walks != 6 {
				t.Errorf("%d walks generated %d traces, want 6 walks and 1 trace", s.Walks, s.TracesGenerated)
			}
			if n := reg.Histogram("engine.job.generate.us", nil).Snapshot().Count; n != 1 {
				t.Errorf("engine.job.generate.us count = %d, want 1", n)
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
				js, _ := planJobs(t, e, spec)
				jobs = append(jobs, js...)
			}
			if err := e.execute(context.Background(), exec, jobs...); err != nil {
				t.Fatal(err)
			}
			if s := e.Stats(); s.SimsRun != 1 || s.JobsRun != 1 || s.TracesGenerated != 1 {
				t.Errorf("%d sims in %d attempts over %d traces, want 1 in 1 over 1", s.SimsRun, s.JobsRun, s.TracesGenerated)
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

// TestExecuteErrorPropagatesAndCancels: a trace that cannot be had fails
// every member of every walk over it with a *JobError naming the job and
// wrapping the cause, and no walk over it runs an attempt or simulates,
// under both executors.
func TestExecuteErrorPropagatesAndCancels(t *testing.T) {
	for _, exec := range executors() {
		t.Run(exec.Name(), func(t *testing.T) {
			e := New(Options{})
			cfg := unreachable(t, e)
			specs := []SimSpec{{Trace: cfg, Scheme: "Dir0B"}, {Trace: cfg, Scheme: "WTI"}, {Trace: cfg, Scheme: "Dragon"}}
			jobs, per := planJobs(t, e, specs)
			if err := e.execute(context.Background(), exec, jobs...); err != nil {
				t.Fatal(err)
			}
			for i, o := range per {
				r, err := o.result()
				var je *JobError
				if r != nil || !errors.As(err, &je) || je.ID != o.j.ID || !errors.Is(err, workload.ErrNotGenerable) ||
					!strings.Contains(err.Error(), cfg.Name) {
					t.Errorf("%s: %v, %v; want a *JobError of %s naming %s and wrapping ErrNotGenerable",
						specs[i].Name(), r, err, o.j.ID, cfg.Name)
				}
			}
			if s := e.Stats(); s.JobsRun != 0 || s.SimsRun != 0 || s.TracesGenerated != 0 {
				t.Errorf("walks over an unreachable trace ran %d attempts, %d sims, %d generations; want none",
					s.JobsRun, s.SimsRun, s.TracesGenerated)
			}
		})
	}
}

// cancelOnStart cancels the run as the first job starts, and counts the
// jobs that start.
type cancelOnStart struct {
	startSignal
	cancel  context.CancelFunc
	started atomic.Int64
}

func (c *cancelOnStart) JobStarted(context.Context, string, string, string) {
	c.started.Add(1)
	c.cancel()
}

// TestExecuteContextCancellation: once the run's context dies, a job
// still waiting for its slot never starts, and execute reports the
// cancellation. The first walk to start cancels the run.
func TestExecuteContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	o := &cancelOnStart{cancel: cancel}
	e := New(Options{Observer: o})
	cfg := workload.POPSConfig(4, 5_000)
	if _, err := e.Trace(ctx, cfg); err != nil {
		t.Fatal(err)
	}
	jobs, _ := planJobs(t, e, []SimSpec{{Trace: cfg, Scheme: "Dir1NB"}, {Trace: cfg, Scheme: "Dragon"}})
	err := e.execute(ctx, Sequential{}, jobs...)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error = %v, want context.Canceled", err)
	}
	if n := o.started.Load(); n != 1 {
		t.Errorf("%d jobs started, want 1: a job ran after cancellation", n)
	}
	for _, j := range jobs {
		if j.err == nil {
			t.Errorf("job %s has no error after cancellation", j.ID)
		}
	}
	if s := e.Stats(); s.SimsRun != 0 {
		t.Errorf("%d simulations finished in a cancelled run", s.SimsRun)
	}
}

// TestTraceTakesOneSlot: inside a batch a generation takes one slot of
// the batch's pool — under Sequential no generate: span overlaps another
// or a simulate: span — and none extra for a caller that holds one
// already; outside a batch it takes none.
func TestTraceTakesOneSlot(t *testing.T) {
	e := New(Options{})
	cfgs := workload.StandardConfigs(4, 20_000)
	batch := context.WithValue(context.Background(), poolKey{}, make(chan struct{}, 1))
	held, release := acquireSlot(batch)
	for i, ctx := range []context.Context{held, context.Background()} {
		done := make(chan error, 1)
		go func() {
			_, err := e.Trace(ctx, cfgs[i])
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a generation waited for a slot its caller holds, or outside a batch")
		}
	}
	release()

	var journal bytes.Buffer
	var specs []SimSpec
	for _, cfg := range cfgs {
		specs = append(specs, SimSpec{Trace: cfg, Scheme: "Dir1NB"}, SimSpec{Trace: cfg, Scheme: "Dragon"})
	}
	if _, err := New(Options{}).Results(journaled(&journal, "slots"), Sequential{}, specs); err != nil {
		t.Fatal(err)
	}
	type span struct {
		name     string
		from, to float64
	}
	var spans []span
	for _, ev := range renderTrace(t, journal.Bytes()).TraceEvents {
		if ev.Ph == "X" && (strings.HasPrefix(ev.Name, "generate:") || strings.HasPrefix(ev.Name, "simulate:")) {
			spans = append(spans, span{ev.Name, *ev.TS, *ev.TS + *ev.Dur})
		}
	}
	if len(spans) != len(cfgs)+len(specs) {
		t.Fatalf("%d generate: and simulate: spans, want %d", len(spans), len(cfgs)+len(specs))
	}
	const eps = 1e-3
	for i, a := range spans {
		for _, b := range spans[i+1:] {
			if a.from < b.to-eps && b.from < a.to-eps {
				t.Errorf("%s and %s overlap in a one-slot pool", a.name, b.name)
			}
		}
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
	spec := []SimSpec{{Trace: workload.POPSConfig(4, 5_000), Scheme: "Dir1NB"}}
	e := New(Options{})
	jobs, per := planJobs(t, e, spec)
	if err := e.execute(context.Background(), nil, jobs...); err != nil {
		t.Fatal(err)
	}
	want, err := New(Options{}).Results(context.Background(), Sequential{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := per[0].result(); err != nil || !reflect.DeepEqual(r, want[0]) {
		t.Errorf("output = %v, %v, want the sequential result", r, err)
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
	jobs, _ := planJobs(t, e, spec)
	j := jobs[0]
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
