package report

import (
	"testing"

	"dirsim/internal/engine"
)

// TestParallelContextRendersIdentically runs the Table 4 / Figure 1 /
// Figure 2 experiments (the full paper-scheme set) and the studies that
// merge groups of their own specs — larger machines, DirCV, filtered
// traces, a workload of their own — under a parallel context and asserts
// the rendered artifacts are byte-identical to the serial context's.
func TestParallelContextRendersIdentically(t *testing.T) {
	const refs = 30_000
	serial := NewContext(refs, 4)
	parallel := NewContextWith(refs, 4,
		engine.New(engine.Options{}), engine.Parallel{Workers: 8})

	for _, id := range []string{"table4", "fig1", "fig2", "scaling", "coarse", "spinlocks", "migration"} {
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
		if got != want {
			t.Errorf("%s: parallel rendering differs from serial\nserial:\n%s\nparallel:\n%s",
				id, want, got)
		}
	}

	if parallel.Engine().Stats().SimsRun == 0 {
		t.Error("parallel context ran no simulations through its engine")
	}
}

// TestRegenerationSimulatesEachSpecOnce: a whole regeneration on a fresh
// engine runs one simulation per distinct spec, however many studies ask
// for it — scaling's 4-CPU rows reuse the headline results, coarse's
// DirNNB reuses scaling's, migration's rate 0 is the standard POPS
// workload, and blocksize's 16-byte row is Table 4's Dir0B and Dragon.
func TestRegenerationSimulatesEachSpecOnce(t *testing.T) {
	for _, exec := range []engine.Executor{engine.Sequential{}, engine.Parallel{Workers: 2}} {
		c := NewContextWith(5_000, 4, engine.New(engine.Options{}), exec)
		for _, e := range Experiments() {
			if _, err := c.RunExperiment(e); err != nil {
				t.Fatalf("%s %s: %v", exec.Name(), e.ID, err)
			}
		}
		if got := c.Engine().Stats().SimsRun; got != 134 {
			t.Errorf("%s: a regeneration ran %d simulations, want 134", exec.Name(), got)
		}
	}
}
