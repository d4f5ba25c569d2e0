package engine

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"dirsim/internal/core"
	"dirsim/internal/sim"
	"dirsim/internal/trace"
	"dirsim/internal/workload"
)

// TestSimSpecKeyGolden pins the keys of unfiltered specs: stores and
// fleet leases index results by these strings. Specs at the native block
// size (BlockBytes 0 or 16) keep the keys computed before SimSpec had a
// Filter; a rescaled spec's key changed when its fills began to be priced
// at its block size, so no result priced at 16 bytes is served for it.
// An unfiltered spec's wire form has no Filter field either.
func TestSimSpecKeyGolden(t *testing.T) {
	cfg := workload.POPSConfig(4, 50_000)
	for _, g := range []struct {
		name string
		spec SimSpec
		key  string
	}{
		{"plain", SimSpec{Trace: cfg, Scheme: "Dir0B"},
			"66671f5e7b0bfe0e2f0960d551a2834cedd7fcb3ca78f0957773f35b0473d8e4"},
		{"check", SimSpec{Trace: cfg, Scheme: "Dir0B", Check: true},
			"2d8eac14570eda651ae5e06fb3b5d747b4631bec3f0d2b5bd3f8c62e328369ff"},
		{"native block", SimSpec{Trace: cfg, Scheme: "Dir0B", BlockBytes: 16},
			"5187070064f3b68d4db953e8dcc40654774eaa0a100afeadfacad4b85c3df765"},
		{"block", SimSpec{Trace: cfg, Scheme: "Dir0B", BlockBytes: 64},
			"e592412b81d6af61b6e1eef8f83245c9316c6b486927da5214f5e355c5dbb2cc"},
		{"all", SimSpec{Trace: workload.THORConfig(8, 50_000), Scheme: "DirNNB", Check: true, BlockBytes: 32},
			"c2afabb4517129988f4a79a8eeafd60090c9ebdfb4c7653e67f0ea5e077808df"},
	} {
		if got := KeyHex(g.spec.Key()); got != g.key {
			t.Errorf("%s: key %s, want %s", g.name, got, g.key)
		}
		data, err := json.Marshal(g.spec)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(data), "Filter") {
			t.Errorf("%s: unfiltered spec's wire form names a filter: %s", g.name, data)
		}
	}
	plain := SimSpec{Trace: cfg, Scheme: "Dir0B"}
	seen := map[Key]string{plain.Key(): "plain"}
	for _, f := range []string{FilterNoSpins, FilterProcAsCPU} {
		s := plain
		s.Filter = f
		if prev, dup := seen[s.Key()]; dup {
			t.Errorf("filter %s collides with %s", f, prev)
		}
		seen[s.Key()] = f
	}
}

// TestFilteredSpecMatchesDirectSimulation: a spec naming a filter yields
// exactly the result of simulating the filtered trace by hand, with and
// without integrity verification (which must count the filtered stream,
// not the trace, as the references to expect).
func TestFilteredSpecMatchesDirectSimulation(t *testing.T) {
	cfg := workload.POPSConfig(4, 20_000)
	tr, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name   string
		filter func(trace.Source) trace.Source
	}{
		{FilterNoSpins, trace.WithoutSpins},
		{FilterProcAsCPU, trace.ProcAsCPU},
	} {
		for _, scheme := range []string{"Dir1NB", "DirCV"} {
			p, err := core.NewByName(scheme, cfg.CPUs)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sim.Simulate(p, f.filter(tr.Iterator()), sim.Options{Check: true})
			if err != nil {
				t.Fatal(err)
			}
			want.Trace = tr.Name
			spec := SimSpec{Trace: cfg, Scheme: scheme, Check: true, Filter: f.name}
			for _, verify := range []bool{false, true} {
				got, err := New(Options{Verify: verify}).Results(context.Background(), nil, []SimSpec{spec})
				if err != nil {
					t.Fatalf("%s/%s verify=%t: %v", scheme, f.name, verify, err)
				}
				if got[0].Fingerprint() != want.Fingerprint() {
					t.Errorf("%s/%s verify=%t: fingerprint %016x, direct simulation %016x",
						scheme, f.name, verify, got[0].Fingerprint(), want.Fingerprint())
				}
			}
		}
	}
}

// TestUnknownFilterFailsAtPlanTime: a filter name outside the closed set
// fails the whole batch before any job runs, as an unknown scheme does.
func TestUnknownFilterFailsAtPlanTime(t *testing.T) {
	e := New(Options{})
	specs := []SimSpec{
		{Trace: workload.POPSConfig(4, 5_000), Scheme: "Dir0B"},
		{Trace: workload.POPSConfig(4, 5_000), Scheme: "Dir0B", Filter: "WithoutSpins"},
	}
	rs, err := e.Results(context.Background(), nil, specs)
	if err == nil || rs != nil || !strings.Contains(err.Error(), `unknown filter "WithoutSpins"`) {
		t.Fatalf("Results = %v, %v; want an unknown-filter error", rs, err)
	}
	if _, ok := AsPartial(err); ok {
		t.Errorf("plan-time failure reported as a partial batch: %v", err)
	}
	if s := e.Stats(); s.JobsRun != 0 || s.TracesGenerated != 0 {
		t.Errorf("rejected batch ran %d jobs, generated %d traces", s.JobsRun, s.TracesGenerated)
	}
}
