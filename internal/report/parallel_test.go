package report

import (
	"testing"

	"dirsim/internal/engine"
)

// TestParallelContextRendersIdentically runs the Table 4 / Figure 1 /
// Figure 2 experiments (the full paper-scheme set) under a parallel
// context and asserts the rendered artifacts are byte-identical to the
// serial context's.
func TestParallelContextRendersIdentically(t *testing.T) {
	const refs = 30_000
	serial := NewContext(refs, 4)
	parallel := NewContextWith(refs, 4,
		engine.New(engine.Options{}), engine.Parallel{Workers: 8})

	for _, id := range []string{"table4", "fig1", "fig2"} {
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
