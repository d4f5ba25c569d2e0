// Benchmarks for the simulation hot path: the batched Simulate loop over
// the three standard traces, one goroutine, no engine.
package sim

import (
	"testing"

	"dirsim/internal/core"
	"dirsim/internal/trace"
	"dirsim/internal/workload"
)

// hotpathWorkloads materializes the three standard traces once per
// process; every benchmark iteration replays the identical references.
func hotpathWorkloads(b testing.TB, refs int) []*trace.Trace {
	cfgs := workload.StandardConfigs(4, refs)
	traces := make([]*trace.Trace, len(cfgs))
	for i, cfg := range cfgs {
		t, err := workload.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		traces[i] = t
	}
	return traces
}

// runLoop simulates one scheme over every trace.
func runLoop(b testing.TB, scheme string, traces []*trace.Trace, opts Options) {
	for _, t := range traces {
		p, err := core.NewByName(scheme, t.CPUs)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Simulate(p, t.Iterator(), opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHotpathBatched(b *testing.B) {
	traces := hotpathWorkloads(b, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runLoop(b, "Dir1NB", traces, Options{})
	}
}
