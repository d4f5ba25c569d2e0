// Benchmarks for the simulation hot path: the batched Simulate loop over
// the three standard traces, one goroutine, no engine.
package sim

import (
	"testing"

	"dirsim/internal/core"
	"dirsim/internal/trace"
	"dirsim/internal/workload"
)

// BenchmarkSimulate replays the three standard 4-CPU traces through each
// of the six paper schemes and reports references simulated per second,
// so the schemes' loops can be compared with one another (go test
// -run '^$' -bench Simulate ./internal/sim).
func BenchmarkSimulate(b *testing.B) {
	cfgs := workload.StandardConfigs(4, 100_000)
	traces := make([]*trace.Trace, len(cfgs))
	var refs int
	for i, cfg := range cfgs {
		traces[i] = workload.MustGenerate(cfg)
		refs += traces[i].Len()
	}
	for _, scheme := range []string{"Dir1NB", "WTI", "Dir0B", "DirNNB", "Dir1B", "Dragon"} {
		b.Run(scheme, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, t := range traces {
					p, err := core.NewByName(scheme, t.CPUs)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := Simulate(p, t.Iterator(), Options{}); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(refs)*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
		})
	}
}
