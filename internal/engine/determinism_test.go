package engine

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"dirsim/internal/sim"
	"dirsim/internal/workload"
)

// paperSchemes are the schemes behind Table 4, Figure 1 and Figure 2
// (report.PaperSchemes, plus DirNNB to cover the sequential-invalidation
// path).
var paperSchemes = []string{"Dir1NB", "WTI", "Dir0B", "Dragon", "DirNNB"}

// over is the group of specs running scheme over every workload of cfgs.
func over(scheme string, cfgs []workload.Config, check bool) []SimSpec {
	specs := make([]SimSpec, len(cfgs))
	for i, cfg := range cfgs {
		specs[i] = SimSpec{Trace: cfg, Scheme: scheme, Check: check}
	}
	return specs
}

// perAndMerged returns the group's per-workload results and their merge.
func perAndMerged(t *testing.T, e *Engine, ctx context.Context, exec Executor,
	specs []SimSpec) ([]*sim.Result, *sim.Result) {
	t.Helper()
	per, err := e.Results(ctx, exec, specs)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := e.Merge(ctx, exec, [][]SimSpec{specs})
	if err != nil {
		t.Fatal(err)
	}
	return per, merged[0]
}

// TestExecutorsProduceIdenticalResults is the engine's acceptance test:
// for every paper scheme over the three standard workloads, the Parallel
// executor (concurrent generations and simulations) produces results
// bit-identical to the Sequential executor (one job at a time). Results
// are plain data — counters, histograms, bus-cycle tallies — so
// reflect.DeepEqual is an exact bit-level comparison.
func TestExecutorsProduceIdenticalResults(t *testing.T) {
	ctx := context.Background()
	cfgs := workload.StandardConfigs(4, 40_000)

	// Separate engines so the parallel run cannot borrow the sequential
	// run's cache (which would make the comparison vacuous).
	seq := New(Options{})
	par := New(Options{})

	for _, scheme := range paperSchemes {
		sPer, sMerged := perAndMerged(t, seq, ctx, Sequential{}, over(scheme, cfgs, false))
		pPer, pMerged := perAndMerged(t, par, ctx, Parallel{Workers: 8}, over(scheme, cfgs, false))
		for i := range sPer {
			if !reflect.DeepEqual(sPer[i], pPer[i]) {
				t.Errorf("%s over %s: parallel result differs from sequential",
					scheme, cfgs[i].Name)
			}
		}
		if !reflect.DeepEqual(sMerged, pMerged) {
			t.Errorf("%s merged: parallel result differs from sequential", scheme)
		}
	}

	// Neither engine borrowed anything: each generated every workload
	// itself, once for all five schemes.
	for name, e := range map[string]*Engine{"sequential": seq, "parallel": par} {
		if got := e.Stats().TracesGenerated; got != int64(len(cfgs)) {
			t.Errorf("%s engine generated %d traces, want %d", name, got, len(cfgs))
		}
	}
}

// TestConcurrentComparesSimulateOnce: callers racing to submit the same
// comparison to one engine share every generation and every simulation —
// each result is computed in exactly one of them and the rest wait on it.
func TestConcurrentComparesSimulateOnce(t *testing.T) {
	schemes := append([]string{"Dir1B"}, paperSchemes...)
	cfgs := workload.StandardConfigs(4, 30_000)
	e := New(Options{})

	const callers = 8
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = e.Compare(context.Background(), Parallel{}, schemes, cfgs, false)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	s := e.Stats()
	if want := int64(len(schemes) * len(cfgs)); s.SimsRun != want {
		t.Errorf("SimsRun = %d, want %d", s.SimsRun, want)
	}
	if want := int64(len(cfgs)); s.TracesGenerated != want {
		t.Errorf("TracesGenerated = %d, want %d", s.TracesGenerated, want)
	}
}

// TestMergeMatchesResults checks the grouped merge against sim.Merge of
// the same specs' per-workload results, and Compare against both, under
// both executors.
func TestMergeMatchesResults(t *testing.T) {
	ctx := context.Background()
	cfgs := workload.StandardConfigs(4, 30_000)
	schemes := []string{"Dir1NB", "WTI", "Dir0B", "Dragon"}

	ref := New(Options{})
	groups := make([][]SimSpec, len(schemes))
	want := make([]*sim.Result, len(schemes))
	for i, s := range schemes {
		groups[i] = over(s, cfgs, false)
		per, err := ref.Results(ctx, Sequential{}, groups[i])
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = sim.Merge(per...); err != nil {
			t.Fatal(err)
		}
	}

	for _, exec := range []Executor{Sequential{}, Parallel{Workers: 6}} {
		got, err := New(Options{}).Merge(ctx, exec, groups)
		if err != nil {
			t.Fatalf("%s: %v", exec.Name(), err)
		}
		byScheme, err := New(Options{}).Compare(ctx, exec, schemes, cfgs, false)
		if err != nil {
			t.Fatalf("%s: %v", exec.Name(), err)
		}
		for i, s := range schemes {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%s: Merge result for %s differs from sim.Merge of its results",
					exec.Name(), s)
			}
			if !reflect.DeepEqual(byScheme[s], want[i]) {
				t.Errorf("%s: Compare result for %s differs", exec.Name(), s)
			}
		}
	}
}

// TestMergeRejectsBadGroups: a batch naming an unknown scheme, holding an
// empty group (nothing to merge), naming an unknown filter or a block size
// the trace cannot be rescaled to fails before anything runs or any trace
// is generated.
func TestMergeRejectsBadGroups(t *testing.T) {
	e := New(Options{})
	cfg := workload.POPSConfig(4, 5_000)
	for name, groups := range map[string][][]SimSpec{
		"unknown scheme": {{{Trace: cfg, Scheme: "NotAScheme"}}},
		"empty group":    {{{Trace: cfg, Scheme: "Dir0B"}}, {}},
		"unknown filter": {{{Trace: cfg, Scheme: "Dir0B", Filter: "nosuchfilter"}}},
		"bad block size": {{{Trace: cfg, Scheme: "Dir0B", BlockBytes: 24}}},
		"negative block": {{{Trace: cfg, Scheme: "Dir0B", BlockBytes: -64}}},
	} {
		rs, err := e.Merge(context.Background(), nil, groups)
		if err == nil || rs != nil {
			t.Errorf("%s: Merge = %v, %v; want a plan-time error", name, rs, err)
		}
		if _, ok := AsPartial(err); ok {
			t.Errorf("%s: plan-time failure reported as a partial batch: %v", name, err)
		}
	}
	if s := e.Stats(); s.JobsRun != 0 || s.TracesGenerated != 0 {
		t.Errorf("rejected batches ran %d jobs, generated %d traces", s.JobsRun, s.TracesGenerated)
	}
}

// TestCheckedRunsIdentical repeats the equivalence with value-coherence
// checking enabled, covering the Check code path end to end.
func TestCheckedRunsIdentical(t *testing.T) {
	ctx := context.Background()
	cfgs := []workload.Config{workload.POPSConfig(4, 25_000)}

	seq := New(Options{})
	par := New(Options{})
	_, sMerged := perAndMerged(t, seq, ctx, Sequential{}, over("Dir0B", cfgs, true))
	_, pMerged := perAndMerged(t, par, ctx, Parallel{Workers: 4}, over("Dir0B", cfgs, true))
	if !reflect.DeepEqual(sMerged, pMerged) {
		t.Error("checked parallel run differs from checked sequential run")
	}
}
