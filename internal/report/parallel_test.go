package report

import (
	"testing"

	"dirsim/internal/engine"
	"dirsim/internal/store"
)

// TestParallelContextRendersIdentically runs the Table 4 / Figure 1 /
// Figure 2 experiments (the full paper-scheme set), the studies that
// merge groups of their own specs — larger machines, DirCV, filtered
// traces, a workload of their own — and the two that ask for single
// results — finite caches, and the vm programs' adopted traces — under a
// parallel context and asserts the rendered artifacts are byte-identical
// to the serial context's.
func TestParallelContextRendersIdentically(t *testing.T) {
	const refs = 30_000
	serial := NewContext(refs, 4)
	parallel := NewContextWith(refs, 4,
		engine.New(engine.Options{}), engine.Parallel{Workers: 8})

	for _, id := range []string{"table4", "fig1", "fig2", "scaling", "coarse", "spinlocks", "migration", "finitecoh", "vm"} {
		exps, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		e := exps[0]
		want, err := e.Run(serial)
		if err != nil {
			t.Fatalf("%s serial: %v", id, err)
		}
		got, err := e.Run(parallel)
		if err != nil {
			t.Fatalf("%s parallel: %v", id, err)
		}
		if got.String() != want.String() {
			t.Errorf("%s: parallel rendering differs from serial\nserial:\n%s\nparallel:\n%s",
				id, want, got)
		}
	}

	if parallel.eng.Stats().SimsRun == 0 {
		t.Error("parallel context ran no simulations through its engine")
	}
}

// TestRegenerationSimulatesEachSpecOnce: a whole regeneration on a fresh
// engine runs one simulation per distinct spec, however many studies ask
// for it — scaling's 4-CPU rows reuse the headline results, coarse's
// DirNNB reuses scaling's, migration's rate 0 is the standard POPS
// workload, and blocksize's 16-byte row is Table 4's Dir0B and Dragon.
// 159 = 134 for the studies on generated workloads + 4 finitecoh caches
// over POPS + 21 vm results (3 programs x 4 schemes + 3 locks x 3
// schemes, every program's trace distinct).
func TestRegenerationSimulatesEachSpecOnce(t *testing.T) {
	for _, exec := range []engine.Executor{engine.Sequential{}, engine.Parallel{Workers: 2}} {
		c := NewContextWith(5_000, 4, engine.New(engine.Options{}), exec)
		for _, e := range Experiments() {
			if _, err := c.RunExperiment(e); err != nil {
				t.Fatalf("%s %s: %v", exec.Name(), e.ID, err)
			}
		}
		if got := c.eng.Stats().SimsRun; got != 159 {
			t.Errorf("%s: a regeneration ran %d simulations, want 159", exec.Name(), got)
		}
	}
}

// TestWarmStoreRunsFiniteAndVMWithoutSimulating: the finitecoh and vm
// studies are keyed specs, so a second context on the same store — a new
// engine, as in a second process — renders them identically from stored
// results with 0 simulations. The cold run generates only POPS.
func TestWarmStoreRunsFiniteAndVMWithoutSimulating(t *testing.T) {
	dir := t.TempDir()
	run := func() (string, engine.Stats) {
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		c := NewContextWith(10_000, 4, engine.New(engine.Options{Store: st}), engine.Parallel{Workers: 2})
		exps, err := Lookup("finitecoh,vm")
		if err != nil {
			t.Fatal(err)
		}
		var out string
		for _, e := range exps {
			s, err := c.RunExperiment(e)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			out += s
		}
		return out, c.eng.Stats()
	}
	cold, coldStats := run()
	if coldStats.SimsRun != 25 || coldStats.TracesGenerated != 1 {
		t.Errorf("cold run: %d simulations, %d traces generated; want 25 and 1",
			coldStats.SimsRun, coldStats.TracesGenerated)
	}
	warm, warmStats := run()
	if warmStats.SimsRun != 0 || warmStats.TracesGenerated != 0 {
		t.Errorf("warm run: %d simulations, %d traces generated; want 0 and 0",
			warmStats.SimsRun, warmStats.TracesGenerated)
	}
	if warm != cold {
		t.Errorf("warm rendering differs from cold\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
}
