package sim

import (
	"fmt"
	"reflect"
	"testing"

	"dirsim/internal/bus"
	"dirsim/internal/core"
	"dirsim/internal/event"
	"dirsim/internal/network"
	"dirsim/internal/trace"
	"dirsim/internal/workload"
)

// referenceSimulate is the seed's per-reference simulation loop, kept
// as the oracle for the batched hot path: it reads one-reference batches,
// so no batch boundary can hide anything, and prices every result as it
// arrives, under every tally, so it is independent of the class table. Any divergence between this and Simulate is a correctness bug,
// not a tuning artifact. quietCleanWrites counts the writes to clean
// blocks that needed no action (Yen–Fu's locally resolved wh-blk-cln),
// so a test can tell that the batched path's quiet-but-not-plain case
// was exercised.
func referenceSimulate(p core.Protocol, src trace.Source, opts Options) (res *Result, quietCleanWrites int, err error) {
	if src.CPUCount() > p.CPUs() {
		return nil, 0, fmt.Errorf("sim: trace has %d CPUs but %s engine simulates %d",
			src.CPUCount(), p.Name(), p.CPUs())
	}
	res = &Result{
		Scheme:  p.Name(),
		Tallies: make(map[string]*bus.Tally),
	}
	for _, m := range opts.models() {
		res.Tallies[m.Name] = bus.NewTally(m)
	}
	if len(opts.Topologies) > 0 {
		res.NetTallies = make(map[string]*network.Tally)
		for _, topo := range opts.Topologies {
			res.NetTallies[topo.Name] = network.NewTally(topo)
		}
	}
	one := make([]trace.Ref, 1)
	for src.NextBatch(one) == 1 {
		out := p.Access(one[0])
		res.Counts.Add(out.Type, 1)
		switch out.Type {
		case event.WrHitClean, event.WrMissClean:
			res.InvalClean.Observe(int(out.Holders))
			res.HoldersAtInval.Observe(int(out.Holders))
			if out.Quiet() {
				quietCleanWrites++
			}
		case event.WrMissDirty, event.RdMissDirty:
			res.HoldersAtInval.Observe(int(out.Holders))
		}
		if out.Broadcast && !out.Update {
			res.Broadcasts++
		}
		res.SeqInvals += int64(out.Inval)
		res.ForcedInvals += int64(out.ForcedInval)
		if out.WriteBack {
			res.WriteBacks++
		}
		for _, t := range res.Tallies {
			t.AddN(out, 1, out.Units())
		}
		for _, t := range res.NetTallies {
			t.AddN(out, 1, out.Units())
		}
	}
	res.ColdMisses, res.CoherenceMisses, res.CapacityMisses, _ = core.MissCauses(p)
	return res, quietCleanWrites, nil
}

// batchTestOpts prices bus models and two topologies so the equivalence
// covers the NetTallies slice path too.
func batchTestOpts() Options {
	return Options{Topologies: []network.Topology{network.Bus(4), network.Mesh(2, 2)}}
}

// TestBatchedEquivalence is the tentpole's oracle: for every paper scheme
// over the three standard workloads, the batched Simulate produces a
// Result bit-identical to the seed's per-reference loop, bus and network
// tallies included. YenFu is here for its quiet wh-blk-cln (an unshared
// write its single bit resolves locally: no action to price, yet a
// Figure 1 observation), Dir2NB for forced invalidations.
func TestBatchedEquivalence(t *testing.T) {
	schemes := []string{"Dir1NB", "WTI", "Dir0B", "Dragon", "DirNNB", "YenFu", "Dir2NB"}
	for _, cfg := range workload.StandardConfigs(4, 30_000) {
		tr, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range schemes {
			build := func() core.Protocol {
				p, err := core.NewByName(scheme, tr.CPUs)
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			want, quiet, err := referenceSimulate(build(), tr.Iterator(), batchTestOpts())
			if err != nil {
				t.Fatal(err)
			}
			got, err := Simulate(build(), tr.Iterator(), batchTestOpts())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s over %s: batched result differs from per-ref reference",
					scheme, cfg.Name)
			}
			if scheme == "YenFu" && quiet == 0 {
				t.Errorf("YenFu over %s: no quiet wh-blk-cln exercised", cfg.Name)
			}
		}
	}
}

func runReference(scheme string, tr *trace.Trace) (*Result, error) {
	p, err := core.NewByName(scheme, tr.CPUs)
	if err != nil {
		return nil, err
	}
	res, _, err := referenceSimulate(p, tr.Iterator(), batchTestOpts())
	return res, err
}

// unevenBatches are the NextBatch sizes chunkedSource cycles through:
// one reference, a prime that never divides the trace, one short of the
// simulator's buffer, a full buffer, and one again.
var unevenBatches = []int{1, 7, DefaultBatchRefs - 1, DefaultBatchRefs, 1}

// chunkedSource hands out at most sizes[i] references on its i-th
// NextBatch call, cycling through sizes, whatever buffer it is passed.
type chunkedSource struct {
	trace.Source
	sizes []int
	i     int
}

func (s *chunkedSource) NextBatch(buf []trace.Ref) int {
	n := min(len(buf), s.sizes[s.i%len(s.sizes)])
	s.i++
	return s.Source.NextBatch(buf[:n])
}

// TestBatchSizeInvariance checks that batches of any size — 1, a prime,
// a buffer less one, a full buffer — produce the identical Result for
// every scheme. The trace length is chosen so the run ends on a partial
// batch.
func TestBatchSizeInvariance(t *testing.T) {
	tr := workload.MustGenerate(workload.POPSConfig(4, 20_001))
	for _, scheme := range core.Schemes() {
		run := func(src trace.Source) *Result {
			p, err := core.NewByName(scheme, tr.CPUs)
			if err != nil {
				t.Fatal(err)
			}
			r, err := Simulate(p, src, batchTestOpts())
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		want := run(tr.Iterator())
		got := run(&chunkedSource{Source: tr.Iterator(), sizes: unevenBatches})
		if got.Fingerprint() != want.Fingerprint() || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: result over uneven batches differs from the trace's own iterator", scheme)
		}
	}
}

// TestBatchedCheckedRun covers the checked (per-reference) path of the
// batched loop against the reference loop with checking off — checking
// must never change measurements.
func TestBatchedCheckedRun(t *testing.T) {
	tr, err := workload.Generate(workload.POPSConfig(4, 8_000))
	if err != nil {
		t.Fatal(err)
	}
	want, err := runReference("Dir0B", tr)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewByName("Dir0B", tr.CPUs)
	if err != nil {
		t.Fatal(err)
	}
	opts := batchTestOpts()
	opts.Check = true
	got, err := Simulate(p, &chunkedSource{Source: tr.Iterator(), sizes: unevenBatches}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("checked batched run differs from unchecked per-ref reference")
	}
}

// TestMergeRejectsTallyMismatch is the regression test for Merge silently
// dropping tallies: a result set where some results price topologies (or
// models) and others do not must error in both directions, mirroring the
// existing "missing from first result" case.
func TestMergeRejectsTallyMismatch(t *testing.T) {
	tr := workload.PingPong(200)
	plain, err := SimulateTrace("Dir0B", tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	priced, err := SimulateTrace("Dir0B", tr, Options{Topologies: []network.Topology{network.Bus(2)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(plain, priced); err == nil {
		t.Error("merge accepted topologies missing from the first result")
	}
	if _, err := Merge(priced, plain); err == nil {
		t.Error("merge accepted topologies missing from a later result")
	}

	oneModel, err := SimulateTrace("Dir0B", tr, Options{Models: []bus.Model{bus.Pipelined()}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(plain, oneModel); err == nil {
		t.Error("merge accepted a result priced under fewer cost models")
	}
	if _, err := Merge(oneModel, plain); err == nil {
		t.Error("merge accepted a result priced under extra cost models")
	}

	// Matching sets still merge.
	if _, err := Merge(priced, priced); err != nil {
		t.Errorf("merge of matching results failed: %v", err)
	}
}
