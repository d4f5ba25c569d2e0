package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"dirsim/internal/faults"
	"dirsim/internal/sim"
	"dirsim/internal/store"
	"dirsim/internal/workload"
)

// TestWalkJobsMatchSingleSpecs: a batch prices the family schemes of one
// trace, filter and block size from one walk, and every result is the
// one the spec gets alone on a fresh engine. A checked spec, a DiriNB
// with i below the machine and the other schemes keep their own walks,
// and so does a family spec with another filter or block size.
func TestWalkJobsMatchSingleSpecs(t *testing.T) {
	cfg := workload.POPSConfig(4, 20_000)
	var specs []SimSpec
	for _, s := range []string{"Dir0B", "WTI", "DirNNB", "DirCV", "YenFu", "Dir1B", "Dir4B", "Dir2NB", "Dir1NB", "Dragon"} {
		specs = append(specs, SimSpec{Trace: cfg, Scheme: s})
	}
	specs = append(specs,
		SimSpec{Trace: cfg, Scheme: "Dir0B", Check: true},
		SimSpec{Trace: cfg, Scheme: "Dir0B", Filter: FilterNoSpins},
		SimSpec{Trace: cfg, Scheme: "Dir0B", BlockBytes: 64},
		SimSpec{Trace: cfg, Scheme: "WTI", BlockBytes: 64},
		SimSpec{Trace: cfg, Scheme: "dir0b"}) // a duplicate
	for _, exec := range []Executor{Sequential{}, Parallel{Workers: 3}} {
		e := New(Options{Verify: true})
		got, err := e.Results(context.Background(), exec, specs)
		if err != nil {
			t.Fatal(err)
		}
		// One walk for the seven native family specs, one for the 64-byte
		// pair, one for the filtered spec, and four walks alone.
		if s := e.Stats(); s.SimsRun != 14 || s.Walks != 7 {
			t.Errorf("%s: %d results from %d walks, want 14 from 7", exec.Name(), s.SimsRun, s.Walks)
		}
		for i, spec := range specs {
			alone, err := New(Options{}).Results(context.Background(), Sequential{}, []SimSpec{spec})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[i], alone[0]) {
				t.Errorf("%s: %s/%s@%d differs from its result alone", exec.Name(), spec.Scheme, spec.Filter, spec.BlockBytes)
			}
		}
	}
}

// TestWalkJobComputesOnlyWhatIsMissing: a member already cached is not
// walked again, and every member a walk computed is published under its
// own key for any later batch.
func TestWalkJobComputesOnlyWhatIsMissing(t *testing.T) {
	cfgs := []workload.Config{workload.THORConfig(4, 10_000)}
	ctx := context.Background()
	e := New(Options{})
	if _, err := e.Results(ctx, Sequential{}, over("Dir0B", cfgs, false)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Compare(ctx, Parallel{}, []string{"Dir0B", "WTI", "DirNNB"}, cfgs, false); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.SimsRun != 3 || s.Walks != 2 {
		t.Errorf("%d results from %d walks, want 3 from 2", s.SimsRun, s.Walks)
	}
	before := e.Stats()
	if _, err := e.Results(ctx, Sequential{}, over("WTI", cfgs, false)); err != nil {
		t.Fatal(err)
	}
	if after := e.Stats(); after.SimsRun != before.SimsRun || after.CacheHits != before.CacheHits+1 {
		t.Errorf("a walked member was not served from memory: %+v then %+v", before, after)
	}
}

// TestWalkTakesWhatConcurrentBatchesWant: a walk job that starts first
// also computes the family specs a batch planned beside it wants on the
// same trace, so that batch's walk job only waits; what no walk took is
// withdrawn when its batch has run.
func TestWalkTakesWhatConcurrentBatchesWant(t *testing.T) {
	e := New(Options{})
	ctx := context.Background()
	cfg := workload.PEROConfig(4, 10_000)
	jobsA, _ := planJobs(t, e, []SimSpec{{Trace: cfg, Scheme: "Dir0B"}})
	jobsB, perB := planJobs(t, e, []SimSpec{{Trace: cfg, Scheme: "WTI"}, {Trace: cfg, Scheme: "Dir1NB"}})
	for _, jobs := range [][]*job{jobsA, jobsB} {
		if err := e.execute(ctx, Sequential{}, jobs...); err != nil {
			t.Fatal(err)
		}
	}
	if s := e.Stats(); s.SimsRun != 3 || s.Walks != 2 {
		t.Errorf("%d results from %d walks, want 3 from 2: Dir0B's walk priced WTI", s.SimsRun, s.Walks)
	}
	wti, err := perB[0].result()
	if err != nil {
		t.Fatal(err)
	}
	alone, err := New(Options{}).Results(ctx, Sequential{}, []SimSpec{{Trace: cfg, Scheme: "WTI"}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wti, alone[0]) {
		t.Error("WTI priced by another batch's walk differs from its result alone")
	}
	// A batch planned and never run leaves nothing wanted behind.
	_, _, release, err := e.planSpecs([]SimSpec{{Trace: workload.THORConfig(4, 1_000), Scheme: "DirNNB"}})
	if err != nil {
		t.Fatal(err)
	}
	release()
	if len(e.wanted) != 0 {
		t.Errorf("wanted still holds %d walk keys", len(e.wanted))
	}
}

// startSignal reports each job a batch starts on started, for a test to
// act once the job is waiting on a flight.
type startSignal struct{ started chan string }

func (s startSignal) JobScheduled(context.Context, string, string, string) {}
func (s startSignal) JobStarted(_ context.Context, id, _, _ string)        { s.started <- id }
func (s startSignal) JobFinished(context.Context, string, string, string, time.Duration, bool, error) {
}

// TestWalkLooksAgainWhenOwnerIsCancelled: a walk job waiting on a result
// another batch has in flight does not fail with that batch's
// cancellation while its own context is alive; it looks again and
// computes the result itself — a family member (WTI) and a walk of one
// (Dir1NB) alike.
func TestWalkLooksAgainWhenOwnerIsCancelled(t *testing.T) {
	for _, scheme := range []string{"WTI", "Dir1NB"} {
		t.Run(scheme, func(t *testing.T) {
			sig := startSignal{started: make(chan string, 8)}
			e := New(Options{Observer: sig})
			spec := SimSpec{Trace: workload.POPSConfig(4, 5_000), Scheme: scheme}
			f, _ := e.results.claim(spec.Key()) // the other batch's walk, in flight
			done := make(chan error, 1)
			var got []*sim.Result
			go func() {
				var err error
				got, err = e.Results(context.Background(), Sequential{}, []SimSpec{spec})
				done <- err
			}()
			if id := <-sig.started; id != spec.Name() { // a walk of a spec in flight asks for no trace
				t.Fatalf("first job started is %s, want %s", id, spec.Name())
			}
			time.Sleep(5 * time.Millisecond) // from its start into its wait on f
			e.results.fulfill(spec.Key(), f, nil, context.Canceled, 0, false)
			if err := <-done; err != nil {
				t.Fatalf("the other batch's cancellation failed this one: %v", err)
			}
			alone, err := New(Options{}).Results(context.Background(), Sequential{}, []SimSpec{spec})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[0], alone[0]) {
				t.Error("recomputed result differs from the result alone")
			}
		})
	}
}

// finishSignal reports each job a batch finishes on finished.
type finishSignal struct{ finished chan string }

func (s finishSignal) JobScheduled(context.Context, string, string, string) {}
func (s finishSignal) JobStarted(context.Context, string, string, string)   {}
func (s finishSignal) JobFinished(_ context.Context, id, _, _ string, _ time.Duration, _ bool, _ error) {
	s.finished <- id
}

// TestWalkWaitingForItsTraceHoldsNoSlot: a walk job waiting on a trace
// another caller is generating holds no slot of its batch's pool. On a
// one-slot pool, the walk over Y, a trace already generated, finishes
// while the generation of X, held by the test, is still in flight; then X
// arrives and the batch completes. Which job reaches the pool first is
// not fixed, so the scenario runs ten times.
func TestWalkWaitingForItsTraceHoldsNoSlot(t *testing.T) {
	ctx := context.Background()
	x, y := workload.POPSConfig(4, 5_000), workload.THORConfig(4, 5_000)
	tx, err := workload.Generate(x)
	if err != nil {
		t.Fatal(err)
	}
	onX, onY := SimSpec{Trace: x, Scheme: "Dir1NB"}, SimSpec{Trace: y, Scheme: "Dir1NB"}
	for run := range 10 {
		sig := finishSignal{finished: make(chan string, 4)}
		e := New(Options{Observer: sig})
		if _, err := e.Trace(ctx, y); err != nil {
			t.Fatal(err)
		}
		f, _ := e.traces.claim(TraceKey(x)) // X's generation, in flight
		done := make(chan error, 1)
		go func() {
			_, err := e.Results(ctx, Parallel{Workers: 1}, []SimSpec{onX, onY})
			done <- err
		}()
		select {
		case id := <-sig.finished:
			if id != onY.Name() {
				t.Errorf("run %d: %s finished while X was in flight, want %s", run, id, onY.Name())
			}
		case <-time.After(5 * time.Second):
			t.Errorf("run %d: the walk over Y did not finish while X's generation was in flight", run)
		}
		e.traces.fulfill(TraceKey(x), f, tx, nil, 0, false)
		if err := <-done; err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if s := e.Stats(); s.SimsRun != 2 || s.TracesGenerated != 1 {
			t.Errorf("run %d: %d sims, %d traces generated; want 2 and Y's 1", run, s.SimsRun, s.TracesGenerated)
		}
	}
}

// TestWalkPublishesAfterItsLastAttempt: a walk claims its members before
// its first attempt and publishes them only after its last, so a
// concurrent batch waiting on a member gets the result of the attempt
// that succeeded, not the retryable error of the one that failed.
func TestWalkPublishesAfterItsLastAttempt(t *testing.T) {
	sig := startSignal{started: make(chan string, 8)}
	entered, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	spurious := &faults.Spurious{Site: "sim:Dir0B+WTI@pops"} // every member's, so the attempt fails
	rem := &fakeRemote{exec: New(Options{})}
	rem.fail = func(SimSpec) error {
		if rem.calls.Load() > 1 {
			return nil
		}
		once.Do(func() { close(entered); <-gate })
		return spurious
	}
	e := New(Options{Remote: rem, Retries: 1, Observer: sig})
	cfg := workload.POPSConfig(4, 5_000)
	wti := SimSpec{Trace: cfg, Scheme: "WTI"}
	doneA := make(chan error, 1)
	go func() {
		_, err := e.Results(context.Background(), Sequential{}, []SimSpec{{Trace: cfg, Scheme: "Dir0B"}, wti})
		doneA <- err
	}()
	<-entered // the walk has claimed both members; its first attempt is failing
	doneB := make(chan error, 1)
	var got []*sim.Result
	go func() {
		var err error
		got, err = e.Results(context.Background(), Sequential{}, []SimSpec{wti})
		doneB <- err
	}()
	for id := <-sig.started; id != wti.Name(); id = <-sig.started {
	}
	time.Sleep(5 * time.Millisecond) // from its start into its wait on the flight
	close(gate)
	if err := <-doneA; err != nil {
		t.Fatalf("the retried walk failed: %v", err)
	}
	if err := <-doneB; err != nil {
		t.Fatalf("the waiting batch got the failed attempt's error: %v", err)
	}
	alone, err := New(Options{}).Results(context.Background(), Sequential{}, []SimSpec{wti})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0], alone[0]) {
		t.Error("the waiting batch's result differs from the result alone")
	}
	if s := e.Stats(); s.JobRetries != 1 || rem.calls.Load() != 2 || s.SimsRun != 2 {
		t.Errorf("%d retries, %d remote calls, %d sims; want 1, 2, 2", s.JobRetries, rem.calls.Load(), s.SimsRun)
	}
}

// TestWalkOfCachedMembersRunsNoAttempt: a batch whose members are all
// cached, in memory or in the durable tier, resolves them without an
// attempt and without a trace: Stats().JobsRun and TracesGenerated do not
// move.
func TestWalkOfCachedMembersRunsNoAttempt(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.THORConfig(4, 5_000)
	specs := []SimSpec{{Trace: cfg, Scheme: "Dir0B"}, {Trace: cfg, Scheme: "WTI"}, {Trace: cfg, Scheme: "Dir1NB"}}
	ctx := context.Background()
	e := New(Options{Store: st})
	if _, err := e.Results(ctx, Parallel{}, specs); err != nil {
		t.Fatal(err)
	}
	before := e.Stats()
	if _, err := e.Results(ctx, Parallel{}, specs); err != nil {
		t.Fatal(err)
	}
	if after := e.Stats(); after.JobsRun != before.JobsRun || after.CacheHits != before.CacheHits+3 ||
		after.TracesGenerated != before.TracesGenerated {
		t.Errorf("memory-cached batch: %d attempts, %d hits, %d traces; want %d, %d and %d",
			after.JobsRun, after.CacheHits, after.TracesGenerated, before.JobsRun, before.CacheHits+3, before.TracesGenerated)
	}
	warm := New(Options{Store: st})
	if _, err := warm.Results(ctx, Parallel{}, specs); err != nil {
		t.Fatal(err)
	}
	if s := warm.Stats(); s.JobsRun != 0 || s.SimsRun != 0 || s.TracesGenerated != 0 {
		t.Errorf("store-cached batch: %d attempts, %d sims, %d traces; want none", s.JobsRun, s.SimsRun, s.TracesGenerated)
	}
}

// TestWalkFaultsFollowTheSpec: an injected fault lands on the spec it is
// drawn for, whichever walk computes that spec. Concurrent batches group
// a shared spec (Dir0B) with different siblings, so which walk job takes
// it depends on timing; under every seed, on every run, the shared spec's
// outcome in each batch is its outcome alone: the same injected cause, or
// the clean result.
func TestWalkFaultsFollowTheSpec(t *testing.T) {
	ctx := context.Background()
	cfg := workload.POPSConfig(4, 5_000)
	shared := SimSpec{Trace: cfg, Scheme: "Dir0B"}
	batches := [][]SimSpec{
		{{Trace: cfg, Scheme: "WTI"}, shared},
		{shared, {Trace: cfg, Scheme: "DirNNB"}},
		{{Trace: cfg, Scheme: "Dir1B"}, {Trace: cfg, Scheme: "DirCV"}, shared},
	}
	clean, err := New(Options{}).Results(ctx, Sequential{}, []SimSpec{shared})
	if err != nil {
		t.Fatal(err)
	}
	// outcome names the shared spec's fate in a batch: "ok", or the cause
	// under every *JobError layer.
	outcome := func(specs []SimSpec, rs []*sim.Result, err error) string {
		i := slices.Index(specs, shared)
		if rs != nil && rs[i] != nil {
			if !reflect.DeepEqual(rs[i], clean[0]) {
				return "a result that differs from the clean run"
			}
			return "ok"
		}
		if p, ok := AsPartial(err); ok {
			err = p.Failed[shared.Name()]
		}
		for je := (*JobError)(nil); errors.As(err, &je); {
			err = je.Err
		}
		return fmt.Sprint(err)
	}
	seen := map[bool]bool{}
	for seed := uint64(1); seed <= 12; seed++ {
		fc := faults.Config{Seed: seed, Panic: 0.2, Spurious: 0.3, Truncate: 0.2}
		rs, err := New(Options{Retries: 1, Faults: faults.New(fc)}).Results(ctx, Sequential{}, []SimSpec{shared})
		want := outcome([]SimSpec{shared}, rs, err)
		seen[want == "ok"] = true
		for run := 0; run < 4; run++ {
			e := New(Options{Retries: 1, Faults: faults.New(fc)})
			got := make([]string, len(batches))
			var wg sync.WaitGroup
			for b, specs := range batches {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rs, err := e.Results(ctx, Parallel{Workers: 4}, specs)
					got[b] = outcome(specs, rs, err)
				}()
			}
			wg.Wait()
			for b, g := range got {
				if g != want {
					t.Errorf("seed %d run %d batch %d: %s is %q, alone %q", seed, run, b, shared.Name(), g, want)
				}
			}
		}
	}
	if !seen[true] || !seen[false] {
		t.Fatalf("seeds 1..12 left %s always ok or always failed (%v); retune the schedule", shared.Name(), seen)
	}
}
