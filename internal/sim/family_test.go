package sim

import (
	"reflect"
	"testing"

	"dirsim/internal/bus"
	"dirsim/internal/core"
	"dirsim/internal/network"
	"dirsim/internal/trace"
	"dirsim/internal/workload"
)

// familySchemes names every MRSW variant the shared walk prices at ncpu,
// degenerate parameters included: DiriB and DiriNB with i >= ncpu.
func familySchemes(ncpu int) []string {
	return []string{"Dir0B", "Dir1B", "Dir2B", "Dir4B", "DirNNB", "DirCV", "YenFu", "WTI",
		core.NewDiriB(ncpu, ncpu).Name(), core.NewDiriNB(ncpu, ncpu).Name()}
}

// TestFamilyMatchesSimulate: one walk priced as every family variant
// gives each variant exactly the Result Simulate gives it alone, at 4 and
// 64 CPUs on the standard traces, under bus models and networks both.
func TestFamilyMatchesSimulate(t *testing.T) {
	for _, ncpu := range []int{4, 64} {
		opts := Options{Models: []bus.Model{bus.Pipelined(), bus.NonPipelinedWords(8)},
			Topologies: []network.Topology{network.Crossbar(ncpu), network.Bus(ncpu)}}
		for _, cfg := range workload.StandardConfigs(ncpu, 20_000) {
			tr := workload.MustGenerate(cfg)
			var ps []core.Protocol
			for _, name := range familySchemes(ncpu) {
				p, err := core.NewByName(name, ncpu)
				if err != nil {
					t.Fatal(err)
				}
				ps = append(ps, p)
			}
			got, err := SimulateFamily(ps, tr.Iterator(), opts)
			if err != nil {
				t.Fatal(err)
			}
			for i, name := range familySchemes(ncpu) {
				want, err := SimulateTrace(name, tr, opts)
				if err != nil {
					t.Fatal(err)
				}
				want.Trace = ""
				if !reflect.DeepEqual(got[i], want) || got[i].Fingerprint() != want.Fingerprint() {
					t.Errorf("%s@%s, %d CPUs: the family walk's result differs from Simulate's", name, cfg.Name, ncpu)
				}
			}
		}
	}
}

// TestFamilyRefusesOthers: a scheme with its own walk, a checker or mixed
// CPU counts cannot share one.
func TestFamilyRefusesOthers(t *testing.T) {
	tr := workload.PingPong(100)
	for name, ps := range map[string][]core.Protocol{
		"Dir1NB":      {core.NewDir0B(2), core.NewDir1NB(2)},
		"Dragon":      {core.NewDragon(2)},
		"Dir2NB at 4": {core.NewDiriNB(4, 2)},
		"finite":      {core.NewDir0B(2), mustByName(t, "FiniteDirNNB:1k1w", 2)},
		"mixed CPUs":  {core.NewDir0B(2), core.NewWTI(4)},
		"none":        nil,
	} {
		if _, err := SimulateFamily(ps, tr.Iterator(), Options{}); err == nil {
			t.Errorf("%s: shared a walk", name)
		}
	}
	if _, err := SimulateFamily([]core.Protocol{core.NewDir0B(2)}, tr.Iterator(), Options{Check: true}); err == nil {
		t.Error("checked family walk accepted")
	}
	if _, err := SimulateFamily([]core.Protocol{core.NewDir0B(1)}, tr.Iterator(), Options{}); err == nil {
		t.Error("a 2-CPU trace ran on a 1-CPU walk")
	}
}

func mustByName(t *testing.T, name string, ncpu int) core.Protocol {
	t.Helper()
	p, err := core.NewByName(name, ncpu)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// BenchmarkFamily prices Dir0B, Dir1B, DirNNB and WTI over the three
// standard 4-CPU traces two ways: one shared walk (SimulateFamily) and
// four Simulate calls. Each reports ns/ref, per reference of one trace
// pass, so the two read side by side (go test -run '^$' -bench Family
// ./internal/sim).
func BenchmarkFamily(b *testing.B) {
	cfgs := workload.StandardConfigs(4, 100_000)
	traces := make([]*trace.Trace, len(cfgs))
	var refs int
	for i, cfg := range cfgs {
		traces[i] = workload.MustGenerate(cfg)
		refs += traces[i].Len()
	}
	schemes := []string{"Dir0B", "Dir1B", "DirNNB", "WTI"}
	protocols := func(t *trace.Trace) []core.Protocol {
		ps := make([]core.Protocol, len(schemes))
		for i, s := range schemes {
			p, err := core.NewByName(s, t.CPUs)
			if err != nil {
				b.Fatal(err)
			}
			ps[i] = p
		}
		return ps
	}
	b.Run("walk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, t := range traces {
				if _, err := SimulateFamily(protocols(t), t.Iterator(), Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(refs), "ns/ref")
	})
	b.Run("simulate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, t := range traces {
				for _, p := range protocols(t) {
					if _, err := Simulate(p, t.Iterator(), Options{}); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(refs), "ns/ref")
	})
}
