package sim

import (
	"testing"

	"dirsim/internal/network"
	"dirsim/internal/workload"
)

// TestFingerprintStableAndSensitive runs a real simulation twice: the two
// results must share a fingerprint, and mutating any measured field must
// change it.
func TestFingerprintStableAndSensitive(t *testing.T) {
	tr := workload.POPS(4, 20_000)
	opts := Options{Topologies: []network.Topology{network.Mesh(2, 2)}}
	a, err := SimulateTrace("Dir0B", tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateTrace("Dir0B", tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	base := a.Fingerprint()
	if b.Fingerprint() != base {
		t.Fatal("identical runs produced different fingerprints")
	}

	for _, m := range resultMutations() {
		mut, err := SimulateTrace("Dir0B", tr, opts)
		if err != nil {
			t.Fatal(err)
		}
		m.do(mut)
		if mut.Fingerprint() == base {
			t.Errorf("fingerprint blind to %s mutation", m.name)
		}
	}
}

// TestFingerprintDistinguishesSchemes checks that two different runs do
// not collide on the obvious axis.
func TestFingerprintDistinguishesSchemes(t *testing.T) {
	tr := workload.POPS(4, 15_000)
	a, err := SimulateTrace("Dir0B", tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateTrace("Dragon", tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("different schemes share a fingerprint")
	}
}

// resultMutation changes one field of a result.
type resultMutation struct {
	name string
	do   func(r *Result)
}

// resultMutations changes the fields of a result one at a time: the
// fingerprint and the binary form must both see every change.
func resultMutations() []resultMutation {
	return []resultMutation{
		{"scheme", func(r *Result) { r.Scheme += "x" }},
		{"trace", func(r *Result) { r.Trace += "x" }},
		{"counts", func(r *Result) { r.Counts.N[0]++ }},
		{"total", func(r *Result) { r.Counts.Total++ }},
		{"hist", func(r *Result) { r.InvalClean.Observe(1) }},
		{"broadcasts", func(r *Result) { r.Broadcasts++ }},
		{"seqinvals", func(r *Result) { r.SeqInvals++ }},
		{"writebacks", func(r *Result) { r.WriteBacks++ }},
		{"forcedinvals", func(r *Result) { r.ForcedInvals++ }},
		{"cold misses", func(r *Result) { r.ColdMisses++ }},
		{"coherence misses", func(r *Result) { r.CoherenceMisses++ }},
		{"capacity misses", func(r *Result) { r.CapacityMisses++ }},
		{"holders hist", func(r *Result) { r.HoldersAtInval.Observe(3) }},
		{"tally transactions", func(r *Result) {
			for _, tl := range r.Tallies {
				tl.Transactions++
				break
			}
		}},
		{"net messages", func(r *Result) {
			for _, tl := range r.NetTallies {
				tl.Messages++
			}
		}},
		{"tally refs", func(r *Result) {
			for _, tl := range r.Tallies {
				tl.Refs++
				break
			}
		}},
		{"tally cycles", func(r *Result) {
			for _, tl := range r.Tallies {
				tl.Cycles[0] += 1
				break
			}
		}},
		{"net cycles", func(r *Result) {
			for _, tl := range r.NetTallies {
				tl.CycleUnits += 1
			}
		}},
		{"model tariff", func(r *Result) {
			for _, tl := range r.Tallies {
				tl.Model.Inval += 1
				break
			}
		}},
		{"model flag", func(r *Result) {
			for _, tl := range r.Tallies {
				tl.Model.DirCheckFree = !tl.Model.DirCheckFree
				break
			}
		}},
		{"topology", func(r *Result) {
			for _, tl := range r.NetTallies {
				tl.Topo.DistSum++
			}
		}},
	}
}
