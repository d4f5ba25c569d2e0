package engine

import (
	"context"
	"reflect"
	"testing"
	"time"

	"dirsim/internal/sim"
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
	perA, releaseA, err := e.planSpecs([]SimSpec{{Trace: cfg, Scheme: "Dir0B"}})
	if err != nil {
		t.Fatal(err)
	}
	perB, releaseB, err := e.planSpecs([]SimSpec{{Trace: cfg, Scheme: "WTI"}, {Trace: cfg, Scheme: "Dir1NB"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, per := range [][]output{perA, perB} {
		var jobs []*job
		for _, o := range per {
			jobs = append(jobs, o.j)
		}
		if err := e.execute(ctx, Sequential{}, jobs...); err != nil {
			t.Fatal(err)
		}
	}
	releaseA()
	releaseB()
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
	_, release, err := e.planSpecs([]SimSpec{{Trace: workload.THORConfig(4, 1_000), Scheme: "DirNNB"}})
	if err != nil {
		t.Fatal(err)
	}
	release()
	if len(e.wanted) != 0 {
		t.Errorf("wanted still holds %d walk keys", len(e.wanted))
	}
}

// TestWalkJobRecomputesWhenAnotherBatchIsCancelled: a member whose
// flight another batch's walk owned fails with that batch's cancellation,
// not this one's; the walk job looks again and computes it itself.
func TestWalkJobRecomputesWhenAnotherBatchIsCancelled(t *testing.T) {
	e := New(Options{})
	spec := SimSpec{Trace: workload.POPSConfig(4, 5_000), Scheme: "WTI"}
	f, _ := e.results.claim(spec.Key()) // the other batch's walk, in flight
	done := make(chan error, 1)
	var got []*sim.Result
	go func() {
		var err error
		got, err = e.Results(context.Background(), Sequential{}, []SimSpec{spec})
		done <- err
	}()
	for e.Stats().JobsRun < 1 { // the walk job's attempt; a spec in flight plans no trace job
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond)
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
}

// startSignal reports each job a batch starts on started, for a test to
// act once the job is waiting on a flight.
type startSignal struct{ started chan string }

func (s startSignal) JobScheduled(context.Context, string, string, string) {}
func (s startSignal) JobStarted(_ context.Context, id, _, _ string)        { s.started <- id }
func (s startSignal) JobFinished(context.Context, string, string, string, time.Duration, bool, error) {
}

// TestLookupLooksAgainWhenOwnerIsCancelled: a keyed job waiting on a
// result another batch has in flight does not fail with that batch's
// cancellation while its own context is alive; it looks again and
// computes the result itself.
func TestLookupLooksAgainWhenOwnerIsCancelled(t *testing.T) {
	sig := startSignal{started: make(chan string, 8)}
	e := New(Options{Observer: sig})
	spec := SimSpec{Trace: workload.POPSConfig(4, 5_000), Scheme: "Dir1NB"}
	f, _ := e.results.claim(spec.Key()) // the other batch's job, in flight
	done := make(chan error, 1)
	var got []*sim.Result
	go func() {
		var err error
		got, err = e.Results(context.Background(), Sequential{}, []SimSpec{spec})
		done <- err
	}()
	if id := <-sig.started; id != spec.Name() { // a spec in flight plans no trace job
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
}
