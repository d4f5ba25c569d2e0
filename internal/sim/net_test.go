package sim

import (
	"testing"

	"dirsim/internal/network"
	"dirsim/internal/workload"
)

func netOpts() Options {
	return Options{Topologies: []network.Topology{network.Crossbar(4), network.Mesh(2, 2)}}
}

func TestSimulateWithTopologies(t *testing.T) {
	tr := workload.PingPong(2000)
	res, err := SimulateTrace("DirNNB", tr, netOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NetTallies) != 2 {
		t.Fatalf("priced %d topologies", len(res.NetTallies))
	}
	for name, tl := range res.NetTallies {
		if tl.Refs != int64(tr.Len()) {
			t.Errorf("%s: %d refs tallied of %d", name, tl.Refs, tr.Len())
		}
		if tl.PerRef() <= 0 {
			t.Errorf("%s: pingpong should cost link cycles", name)
		}
	}
}

func TestMergeNetTallies(t *testing.T) {
	a, err := SimulateTrace("DirNNB", workload.PingPong(500), netOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateTrace("DirNNB", workload.Migratory(4, 4, 50), netOpts())
	if err != nil {
		t.Fatal(err)
	}
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for name := range a.NetTallies {
		want := a.NetTallies[name].CycleUnits + b.NetTallies[name].CycleUnits
		if got := m.NetTallies[name].CycleUnits; got != want {
			t.Errorf("%s: merged %v cycles, want %v", name, got, want)
		}
	}
}

func TestMergeNetTalliesMismatch(t *testing.T) {
	a, err := SimulateTrace("DirNNB", workload.PingPong(100), netOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateTrace("DirNNB", workload.PingPong(100),
		Options{Topologies: []network.Topology{network.Ring(4)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(a, b); err == nil {
		t.Error("merging mismatched topology sets should fail")
	}
}

func TestMergeBusModelMismatch(t *testing.T) {
	a, err := SimulateTrace("Dir0B", workload.PingPong(100), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateTrace("Dir0B", workload.PingPong(100), netOpts())
	if err != nil {
		t.Fatal(err)
	}
	// The second result carries network tallies the first lacks:
	// merging differently-configured runs must fail loudly rather than
	// silently dropping measurements.
	if _, err := Merge(a, b); err == nil {
		t.Error("merging differently-priced results should fail")
	}
}

func TestSimulateTraceAndMergeErrors(t *testing.T) {
	if _, err := SimulateTrace("NotAScheme", workload.PingPong(100), Options{}); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := Merge(); err == nil {
		t.Error("empty result list should fail (nothing to merge)")
	}
}
