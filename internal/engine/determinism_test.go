package engine

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"dirsim/internal/workload"
)

// paperSchemes are the schemes behind Table 4, Figure 1 and Figure 2
// (report.PaperSchemes, plus DirNNB to cover the sequential-invalidation
// path).
var paperSchemes = []string{"Dir1NB", "WTI", "Dir0B", "Dragon", "DirNNB"}

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
		sPer, sMerged, err := seq.SchemeOverTraces(ctx, Sequential{}, scheme, cfgs, false)
		if err != nil {
			t.Fatalf("%s sequential: %v", scheme, err)
		}
		pPer, pMerged, err := par.SchemeOverTraces(ctx, Parallel{Workers: 8}, scheme, cfgs, false)
		if err != nil {
			t.Fatalf("%s parallel: %v", scheme, err)
		}
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
// each keyed job runs in exactly one of them and the rest wait on it.
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

// TestCompareMatchesSchemeOverTraces checks the batched multi-scheme entry
// point against per-scheme submission, under both executors.
func TestCompareMatchesSchemeOverTraces(t *testing.T) {
	ctx := context.Background()
	cfgs := workload.StandardConfigs(4, 30_000)
	schemes := []string{"Dir1NB", "WTI", "Dir0B", "Dragon"}

	ref := New(Options{})
	want := map[string]any{}
	for _, s := range schemes {
		_, merged, err := ref.SchemeOverTraces(ctx, Sequential{}, s, cfgs, false)
		if err != nil {
			t.Fatal(err)
		}
		want[s] = merged
	}

	for _, exec := range []Executor{Sequential{}, Parallel{Workers: 6}} {
		e := New(Options{})
		got, err := e.Compare(ctx, exec, schemes, cfgs, false)
		if err != nil {
			t.Fatalf("%s: %v", exec.Name(), err)
		}
		for _, s := range schemes {
			if !reflect.DeepEqual(got[s], want[s]) {
				t.Errorf("%s: Compare result for %s differs from SchemeOverTraces",
					exec.Name(), s)
			}
		}
	}
}

// TestCheckedRunsIdentical repeats the equivalence with value-coherence
// checking enabled, covering the Check code path end to end.
func TestCheckedRunsIdentical(t *testing.T) {
	ctx := context.Background()
	cfgs := []workload.Config{workload.POPSConfig(4, 25_000)}

	seq := New(Options{})
	par := New(Options{})
	_, sMerged, err := seq.SchemeOverTraces(ctx, Sequential{}, "Dir0B", cfgs, true)
	if err != nil {
		t.Fatal(err)
	}
	_, pMerged, err := par.SchemeOverTraces(ctx, Parallel{Workers: 4}, "Dir0B", cfgs, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sMerged, pMerged) {
		t.Error("checked parallel run differs from checked sequential run")
	}
}
