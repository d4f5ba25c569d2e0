// Benchmarks for the simulation hot path: the batched Simulate loop over
// the three standard traces and over a trace of nothing but misses, one
// goroutine, no engine.
package sim

import (
	"testing"

	"dirsim/internal/core"
	"dirsim/internal/event"
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

// BenchmarkMissPath replays a two-CPU ping-pong on one block in which the
// CPUs alternate on every reference, reading twice and writing twice in
// turn, so under Dir1NB every data reference is a miss that steals the
// block. It reports the simulator's cost per miss (ns/miss): the path
// that every reference a plain count skips still takes.
func BenchmarkMissPath(b *testing.B) {
	t := trace.New("misspath", 2)
	for i := range 1 << 16 {
		cpu, kind := uint8(i&1), trace.Read
		if i&2 != 0 {
			kind = trace.Write
		}
		t.Append(trace.Ref{Addr: 0, CPU: cpu, Proc: uint16(cpu), Kind: kind})
	}
	var misses int64
	for i := 0; i < b.N; i++ {
		res, err := SimulateTrace("Dir1NB", t, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if misses = res.Counts.Total - res.Counts.N[event.Instr] - res.Counts.N[event.RdHit] - res.Counts.N[event.WrHitOwn]; misses != int64(t.Len()) {
			b.Fatalf("%d of %d references missed", misses, t.Len())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(misses), "ns/miss")
}
