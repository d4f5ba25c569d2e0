package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"dirsim/internal/sim"
	"dirsim/internal/workload"
)

// fakeRemote executes specs through a private local engine — the honest
// stand-in for a worker fleet, since workers run the same code — while
// counting dispatches (calls) and the specs they carried. Its fail hook
// lets tests force unavailability or structured execution failures per
// spec.
type fakeRemote struct {
	exec  *Engine
	calls atomic.Int64
	specs atomic.Int64
	fail  func(spec SimSpec) error
}

func (f *fakeRemote) SimulateRemote(ctx context.Context, specs []SimSpec) ([]*sim.Result, []error) {
	f.calls.Add(1)
	f.specs.Add(int64(len(specs)))
	rs, errs := make([]*sim.Result, len(specs)), make([]error, len(specs))
	for i, spec := range specs {
		if f.fail != nil {
			if errs[i] = f.fail(spec); errs[i] != nil {
				continue
			}
		}
		r, err := f.exec.Results(ctx, Sequential{}, []SimSpec{spec})
		if err != nil {
			errs[i] = err
			continue
		}
		rs[i] = r[0]
	}
	return rs, errs
}

func remoteSpecs() []SimSpec {
	var specs []SimSpec
	for _, cfg := range workload.StandardConfigs(4, 5_000) {
		for _, scheme := range []string{"Dir0B", "Dir1NB"} {
			specs = append(specs, SimSpec{Trace: cfg, Scheme: scheme})
		}
	}
	return specs
}

// TestRemoteServesUncachedSpecs checks the remote-first plan: every
// uncached spec dispatches to the Remote, the results are bit-identical
// to a purely local run, and the coordinator side generates no traces.
func TestRemoteServesUncachedSpecs(t *testing.T) {
	ctx := context.Background()
	specs := remoteSpecs()
	want, err := New(Options{}).Results(ctx, Sequential{}, specs)
	if err != nil {
		t.Fatal(err)
	}

	for _, exec := range executors() {
		t.Run(exec.Name(), func(t *testing.T) {
			rem := &fakeRemote{exec: New(Options{})}
			e := New(Options{Remote: rem})
			got, err := e.Results(ctx, exec, specs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i].Fingerprint() != want[i].Fingerprint() || !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("spec %d (%s@%s) diverged from local run", i, specs[i].Scheme, specs[i].Trace.Name)
				}
			}
			st := e.Stats()
			if st.SimsRemote != int64(len(specs)) || rem.calls.Load() != int64(len(specs)) {
				t.Errorf("SimsRemote=%d remote calls=%d, want %d", st.SimsRemote, rem.calls.Load(), len(specs))
			}
			if st.TracesGenerated != 0 {
				t.Errorf("remote-served run generated %d traces locally", st.TracesGenerated)
			}
			if st.RemoteDegraded != 0 {
				t.Errorf("RemoteDegraded = %d, want 0", st.RemoteDegraded)
			}

			// Warm re-run: everything is cached, the fleet sees nothing.
			before := rem.calls.Load()
			again, err := e.Results(ctx, exec, specs)
			if err != nil {
				t.Fatal(err)
			}
			if rem.calls.Load() != before {
				t.Errorf("cached specs dispatched remotely: %d extra calls", rem.calls.Load()-before)
			}
			for i := range want {
				if !reflect.DeepEqual(again[i], want[i]) {
					t.Fatalf("warm spec %d diverged", i)
				}
			}
		})
	}
}

// TestRemoteUnavailableDegradesToLocal checks the degradation ladder's
// bottom rung: a Remote that reports unavailability (wrapped, as real
// clients return it) converts every dispatch into a local computation
// with identical results.
func TestRemoteUnavailableDegradesToLocal(t *testing.T) {
	ctx := context.Background()
	specs := remoteSpecs()
	want, err := New(Options{}).Results(ctx, Sequential{}, specs)
	if err != nil {
		t.Fatal(err)
	}

	rem := &fakeRemote{exec: New(Options{}), fail: func(SimSpec) error {
		return fmt.Errorf("fleet drained: %w", ErrRemoteUnavailable)
	}}
	e := New(Options{Remote: rem})
	got, err := e.Results(ctx, Parallel{}, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("degraded spec %d diverged from local run", i)
		}
	}
	st := e.Stats()
	if st.RemoteDegraded != int64(len(specs)) || st.SimsRemote != 0 {
		t.Errorf("RemoteDegraded=%d SimsRemote=%d, want %d/0", st.RemoteDegraded, st.SimsRemote, len(specs))
	}
	if st.SimsRun != int64(len(specs)) {
		t.Errorf("SimsRun = %d, want %d local computations", st.SimsRun, len(specs))
	}
	// The degraded fallbacks share trace generations: 3 workloads, not 6.
	if st.TracesGenerated != 3 {
		t.Errorf("TracesGenerated = %d, want 3 (one per workload)", st.TracesGenerated)
	}
}

// TestRemoteExecutionErrorSurfaces checks that a structured worker-side
// failure is terminal: it surfaces through the job as an errors.As
// matchable error, with no local fallback masking it.
func TestRemoteExecutionErrorSurfaces(t *testing.T) {
	ctx := context.Background()
	specs := remoteSpecs()[:2]
	boom := &JobError{ID: "sim:Dir1NB@pops", Kind: "sim", Attempts: 1, Panicked: true,
		Stack: []byte("goroutine 7 [running]:"), Err: errors.New("panic: injected")}
	rem := &fakeRemote{exec: New(Options{}), fail: func(s SimSpec) error {
		if s.Scheme == "Dir1NB" {
			return boom
		}
		return nil
	}}
	e := New(Options{Remote: rem})
	got, err := e.Results(ctx, Parallel{}, specs)
	var p *Partial
	if !errors.As(err, &p) || len(p.Failed) != 1 {
		t.Fatalf("want one-failure Partial, got %v", err)
	}
	for _, ferr := range p.Failed {
		// The local job's own JobError wraps the worker's; the worker's
		// layer must still be reachable with its panic flag and stack.
		var je *JobError
		if !errors.As(ferr, &je) || je == boom || !errors.As(je.Err, &je) ||
			je != boom || !je.Panicked || len(je.Stack) == 0 {
			t.Fatalf("worker failure lost structure: %v", ferr)
		}
	}
	// The surviving spec still came back remote; nothing ran locally.
	if got[0] == nil {
		t.Error("surviving spec voided by sibling's failure")
	}
	if st := e.Stats(); st.RemoteDegraded != 0 {
		t.Errorf("execution error must not degrade to local, RemoteDegraded=%d", st.RemoteDegraded)
	}
}

// barrierRemote holds every call until want of them are in flight at
// once, then lets each finish through then.
type barrierRemote struct {
	want     int64
	inflight atomic.Int64
	all      chan struct{}
	then     func(context.Context, []SimSpec) ([]*sim.Result, []error)
}

func (b *barrierRemote) SimulateRemote(ctx context.Context, specs []SimSpec) ([]*sim.Result, []error) {
	if b.inflight.Add(1) == b.want {
		close(b.all)
	}
	select {
	case <-b.all:
		return b.then(ctx, specs)
	case <-ctx.Done():
		errs := make([]error, len(specs))
		for i := range errs {
			errs[i] = ctx.Err()
		}
		return make([]*sim.Result, len(specs)), errs
	}
}

// TestRemoteOffersWholeBatch: a job blocked in SimulateRemote holds no
// pool slot, so the Remote sees every uncached spec of a batch at once
// however small the pool is, one slot included. This Remote answers
// nobody until all six are in flight; with waits counted against the
// pool it never would, so the one-slot case gets a short deadline to
// fail fast on.
func TestRemoteOffersWholeBatch(t *testing.T) {
	for _, tc := range []struct {
		exec     Executor
		deadline time.Duration
	}{{Sequential{}, 5 * time.Second}, {Parallel{Workers: 2}, 30 * time.Second}} {
		t.Run(tc.exec.Name(), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), tc.deadline)
			defer cancel()
			specs := remoteSpecs()
			worker := &fakeRemote{exec: New(Options{})}
			rem := &barrierRemote{want: int64(len(specs)), all: make(chan struct{}), then: worker.SimulateRemote}
			e := New(Options{Remote: rem})
			got, err := e.Results(ctx, tc.exec, specs)
			if err != nil {
				t.Fatalf("batch was not offered whole (%d of %d calls in flight): %v",
					rem.inflight.Load(), len(specs), err)
			}
			want, err := New(Options{}).Results(ctx, Sequential{}, specs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("spec %d diverged from local run", i)
				}
			}
		})
	}
}

// TestDegradedBodiesBoundedByWorkers: the slot a remote-first job does
// not hold while it waits, it takes before it computes. Six dispatches
// fail over to local execution in the same instant; the spans of their
// local bodies — store lookup and generation of the trace, then the
// simulation — must never overlap deeper than the pool, under either
// executor.
func TestDegradedBodiesBoundedByWorkers(t *testing.T) {
	for _, exec := range []Executor{Sequential{}, Parallel{Workers: 2}} {
		t.Run(exec.Name(), func(t *testing.T) { testDegradedBodiesBounded(t, exec) })
	}
}

func testDegradedBodiesBounded(t *testing.T, exec Executor) {
	workers := exec.workerCount()
	var specs []SimSpec
	for _, cfg := range workload.StandardConfigs(4, 20_000) {
		for _, scheme := range []string{"Dir0B", "Dir1NB"} {
			specs = append(specs, SimSpec{Trace: cfg, Scheme: scheme})
		}
	}
	rem := &barrierRemote{want: int64(len(specs)), all: make(chan struct{}),
		then: func(_ context.Context, specs []SimSpec) ([]*sim.Result, []error) {
			errs := make([]error, len(specs))
			for i := range errs {
				errs[i] = fmt.Errorf("fleet drained: %w", ErrRemoteUnavailable)
			}
			return make([]*sim.Result, len(specs)), errs
		}}
	var journal bytes.Buffer
	e := New(Options{Remote: rem, Store: openTier(t, t.TempDir())})
	// A pool that counted waits would never let all six dispatches meet.
	ctx, cancel := context.WithTimeout(journaled(&journal, "degraded"), 30*time.Second)
	defer cancel()
	if _, err := e.Results(ctx, exec, specs); err != nil {
		t.Fatalf("dispatches did not all fail over (%d of %d calls in flight): %v",
			rem.inflight.Load(), len(specs), err)
	}
	if st := e.Stats(); st.RemoteDegraded != int64(len(specs)) || st.SimsRun != int64(len(specs)) {
		t.Fatalf("RemoteDegraded=%d SimsRun=%d, want %d local computations", st.RemoteDegraded, st.SimsRun, len(specs))
	}

	// One interval per degraded body: its simulation span, whose parent
	// is the body's attempt span.
	type interval struct{ start, end float64 }
	bodies := make(map[float64]*interval)
	for _, ev := range renderTrace(t, journal.Bytes()).TraceEvents {
		if ev.Ph != "X" || ev.Cat != "sim" {
			continue
		}
		parent, _ := ev.Args["parent"].(float64)
		b := bodies[parent]
		if b == nil {
			b = &interval{start: *ev.TS, end: *ev.TS + *ev.Dur}
			bodies[parent] = b
		}
		b.start, b.end = min(b.start, *ev.TS), max(b.end, *ev.TS+*ev.Dur)
	}
	if len(bodies) != len(specs) {
		t.Fatalf("found %d local bodies in the trace, want %d", len(bodies), len(specs))
	}
	peak := 0
	for _, a := range bodies {
		depth := 0
		for _, b := range bodies {
			if b.start <= a.start && a.start < b.end {
				depth++
			}
		}
		peak = max(peak, depth)
	}
	if peak > workers {
		t.Errorf("%d local bodies ran at once under %s, the pool has %d slots", peak, exec.Name(), workers)
	}
}

// TestRemoteWalksFamilyInOneCall: on an engine with a Remote the family
// members of one trace go to it in one call, a keyed spec in a call of its
// own, and each member keeps its own outcome. Members the Remote reports
// unavailable are walked locally together, once; one it fails fails alone;
// the rest stand.
func TestRemoteWalksFamilyInOneCall(t *testing.T) {
	ctx := context.Background()
	cfg := workload.POPSConfig(4, 5_000)
	var specs []SimSpec
	for _, s := range []string{"Dir0B", "WTI", "DirNNB", "Dir1B", "Dir1NB"} {
		specs = append(specs, SimSpec{Trace: cfg, Scheme: s})
	}
	want, err := New(Options{}).Results(ctx, Sequential{}, specs)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("worker failed DirNNB")
	for _, exec := range executors() {
		t.Run(exec.Name(), func(t *testing.T) {
			rem := &fakeRemote{exec: New(Options{})}
			e := New(Options{Remote: rem})
			got, err := e.Results(ctx, exec, specs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("remote results diverged from the local run")
			}
			if c, n := rem.calls.Load(), rem.specs.Load(); c != 2 || n != 5 {
				t.Errorf("%d calls carried %d specs, want 2 calls (the family, Dir1NB) carrying 5", c, n)
			}

			rem = &fakeRemote{exec: New(Options{}), fail: func(s SimSpec) error {
				switch s.Scheme {
				case "WTI", "Dir1B":
					return fmt.Errorf("fleet drained: %w", ErrRemoteUnavailable)
				case "DirNNB":
					return boom
				}
				return nil
			}}
			e = New(Options{Remote: rem})
			got, err = e.Results(ctx, exec, specs)
			p, ok := AsPartial(err)
			if !ok || len(p.Failed) != 1 || !errors.Is(p.Failed[specs[2].Name()], boom) {
				t.Fatalf("want DirNNB alone failed with the Remote's error, got %v", err)
			}
			for i, r := range got {
				if i != 2 && !reflect.DeepEqual(r, want[i]) {
					t.Errorf("%s diverged beside a failed sibling", specs[i].Scheme)
				}
			}
			if st := e.Stats(); st.RemoteDegraded != 2 || st.Walks != 1 || st.SimsRemote != 2 || st.SimsRun != 4 {
				t.Errorf("degraded=%d walks=%d remote=%d sims=%d, want WTI and Dir1B walked locally once beside 2 remote results",
					st.RemoteDegraded, st.Walks, st.SimsRemote, st.SimsRun)
			}
		})
	}
}
