package sim

import (
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"dirsim/internal/core"
	"dirsim/internal/event"
	"dirsim/internal/network"
	"dirsim/internal/trace"
	"dirsim/internal/workload"
)

// batchOnly is a core.Protocol wrapper that knows AccessBatch and nothing
// newer — the shape of the benchmark's traced protocol, which times each
// batch crossing into core. Embedding the interface hides whatever sparse
// loop the wrapped engine has.
type batchOnly struct {
	core.Protocol
	calls, refs int
}

func (p *batchOnly) AccessBatch(refs []trace.Ref, out []event.Result) []event.Result {
	p.calls++
	p.refs += len(refs)
	return core.AccessBatch(p.Protocol, refs, out)
}

// countedSource counts the batches a simulation pulls.
type countedSource struct {
	trace.Source
	batches int
}

func (s *countedSource) NextBatch(buf []trace.Ref) int {
	n := s.Source.NextBatch(buf)
	if n > 0 {
		s.batches++
	}
	return n
}

// TestSparseFallbackKeepsBatchCalls holds the simulator to the contract a
// wrapper that only implements AccessBatch relies on: Simulate hands it
// every batch it pulls in exactly one AccessBatch call, each shard worker
// does the same with every buffer it is sent, and the Result is the one
// the bare engine yields.
func TestSparseFallbackKeepsBatchCalls(t *testing.T) {
	tr := workload.MustGenerate(workload.POPSConfig(4, 30_500))
	for _, scheme := range []string{"Dir1NB", "Dir0B", "YenFu", "Dragon", "Berkeley"} {
		build := func() core.Protocol {
			p, err := core.NewByName(scheme, tr.CPUs)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		want, _, err := referenceSimulate(build(), tr.Iterator(), batchTestOpts())
		if err != nil {
			t.Fatal(err)
		}

		p := &batchOnly{Protocol: build()}
		src := &countedSource{Source: &chunkedSource{Source: tr.Iterator(), sizes: unevenBatches}}
		got, err := Simulate(p, src, batchTestOpts())
		if err != nil {
			t.Fatal(err)
		}
		if p.calls != src.batches || p.refs != tr.Len() {
			t.Errorf("%s: %d AccessBatch calls over %d refs for %d batches of %d refs",
				scheme, p.calls, p.refs, src.batches, tr.Len())
		}
		if got.Fingerprint() != want.Fingerprint() || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: result behind an AccessBatch-only wrapper differs from the per-ref reference", scheme)
		}

		// Sharded: worker s receives its shard's references in full
		// buffers, the last one short.
		const shards = 3
		var perShard [shards]int
		for _, r := range tr.Refs {
			perShard[ShardOf(r.Block(), shards)]++
		}
		var wrappers []*batchOnly
		opts := batchTestOpts()
		opts.Shards = shards
		sharded, err := SimulateSharded(func() (core.Protocol, error) {
			w := &batchOnly{Protocol: build()}
			wrappers = append(wrappers, w)
			return w, nil
		}, tr.Iterator(), opts)
		if err != nil {
			t.Fatal(err)
		}
		for s, w := range wrappers {
			if wantCalls := (perShard[s] + DefaultBatchRefs - 1) / DefaultBatchRefs; w.calls != wantCalls || w.refs != perShard[s] {
				t.Errorf("%s shard %d: %d AccessBatch calls over %d refs, want %d over %d",
					scheme, s, w.calls, w.refs, wantCalls, perShard[s])
			}
		}
		if sharded.Fingerprint() != want.Fingerprint() {
			t.Errorf("%s: sharded result behind AccessBatch-only wrappers differs from the per-ref reference", scheme)
		}
	}
}

// TestSparseResultsBufferGrowsOnDemand bounds what a simulation allocates
// for classification results. The buffer used to be sized for a batch in
// which every reference produced one — 16 bytes a reference, 64 KB at
// the simulator's batch size; a sparse stream needs room for the few per
// cent of a batch that did something.
func TestSparseResultsBufferGrowsOnDemand(t *testing.T) {
	tr := workload.MustGenerate(workload.POPSConfig(4, 100_000))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := SimulateTrace("Dir0B", tr, Options{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	// The trace is read in place, so there is no reference buffer: about
	// 45 KB of tables, tallies and results; a results buffer sized for
	// the batch would add 64 KB.
	if total := after.TotalAlloc - before.TotalAlloc; total > 96<<10 {
		t.Errorf("%d bytes allocated, limit 96 KB", total)
	}
}

// TestSparseLoopAllocatesPerSimulation holds the hot loop to allocating
// nothing per batch: a thousand batches must not cost a simulation more
// allocations than its tables, tallies and the growth of one results
// buffer account for.
func TestSparseLoopAllocatesPerSimulation(t *testing.T) {
	tr := workload.MustGenerate(workload.POPSConfig(4, 100_000))
	build := func() (core.Protocol, error) { return core.NewByName("Dir0B", tr.CPUs) }
	for _, shards := range []int{1, 2} {
		if allocs := testing.AllocsPerRun(3, func() {
			src := &chunkedSource{Source: tr.Iterator(), sizes: []int{100}}
			var err error
			if shards > 1 {
				_, err = SimulateSharded(build, src, Options{Shards: shards})
			} else {
				p, _ := build()
				_, err = Simulate(p, src, Options{})
			}
			if err != nil {
				t.Fatal(err)
			}
		}); allocs > 300 {
			t.Errorf("shards=%d: %.0f allocations for %d batches", shards, allocs, tr.Len()/100)
		}
	}
}

// ownerWrites is a 4-CPU stream dominated by owner write hits: each CPU
// in turn writes a block, a neighbour reads it, and the writer writes it
// 30 times more, between instruction fetches and reads of its own. Under
// WTI each repeat write is a wh-blk-drty that goes through to memory;
// under Dragon the first of them is a wh-distrib by the block's owner
// and so is every one after it.
func ownerWrites(blocks int) *trace.Trace {
	t := trace.New("ownerwrites", 4)
	for b := range blocks {
		addr := trace.Block(b).Addr()
		owner, reader := uint8(b%4), uint8((b+1)%4)
		t.Append(trace.Ref{Addr: addr, CPU: owner, Proc: uint16(owner), Kind: trace.Write})
		t.Append(trace.Ref{Addr: addr, CPU: reader, Proc: uint16(reader), Kind: trace.Read})
		for range 30 {
			t.Append(trace.Ref{Addr: addr, CPU: owner, Proc: uint16(owner), Kind: trace.Write})
			t.Append(trace.Ref{Addr: addr, CPU: owner, Proc: uint16(owner), Kind: trace.Instr})
		}
		t.Append(trace.Ref{Addr: addr, CPU: owner, Proc: uint16(owner), Kind: trace.Read})
	}
	return t
}

// TestPricedHitsMatchPerResult runs WTI and Dragon over ownerWrites,
// where most data references are write hits that change no state yet
// cost bus cycles, under both bus models and a mesh, and holds Simulate's
// result to pricing every Access result one by one. The hits must reach
// the simulator as counts with a priced outcome, not as results: a
// simulator that priced a counted hit as free would fail here.
func TestPricedHitsMatchPerResult(t *testing.T) {
	tr := ownerWrites(64)
	opts := Options{Topologies: []network.Topology{network.Mesh(2, 2)}}
	for _, scheme := range []string{"WTI", "Dragon"} {
		build := func() core.Protocol {
			p, err := core.NewByName(scheme, tr.CPUs)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		var plain core.Plain
		sparse := core.AccessSparse(build(), tr.Refs, &plain, nil)
		var priced int64
		for ty, n := range plain.N {
			if !plain.Outcome[ty].Quiet() {
				priced += n
			}
		}
		if data := int64(tr.Len()) - plain.N[event.Instr]; priced*2 < data {
			t.Fatalf("%s: %d of %d data references counted with a price (%d sparse results); the stream tests nothing",
				scheme, priced, data, len(sparse))
		}
		want, _, err := referenceSimulate(build(), tr.Iterator(), opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Simulate(build(), tr.Iterator(), opts)
		if err != nil {
			t.Fatal(err)
		}
		for name, w := range want.Tallies {
			if g := got.Tallies[name]; !reflect.DeepEqual(g, w) {
				t.Errorf("%s under %s: tally\n%v\npriced one by one\n%v", scheme, name, g, w)
			}
		}
		for name, w := range want.NetTallies {
			if g := got.NetTallies[name]; !reflect.DeepEqual(g, w) {
				t.Errorf("%s on %s: tally\n%v\npriced one by one\n%v", scheme, name, g, w)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: result differs from the per-result reference", scheme)
		}
	}
}

// TestSparseBufferReusedAcrossSimulations bounds what one simulation of
// a miss-heavy trace allocates once others have run: under Dir0B every
// pingpong reference changes state, so its results buffer grows to a
// whole batch (160 KB), and it must be a buffer an earlier simulation
// grew, not a new one. The pool keeps a batch per processor, and a simulation that
// starts on a processor whose batch another one holds takes a new one, so
// a few warm-up simulations leave one for every processor, and the least
// of three measurements is taken.
func TestSparseBufferReusedAcrossSimulations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops batches at random")
	}
	tr := workload.PingPong(16_384)
	simulate := func() {
		if _, err := SimulateTrace("Dir0B", tr, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	// A collection moves the pool's batches aside, and a second drops
	// them; none runs from the first simulation to the last.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for range 10 {
		simulate()
	}
	const sims = 20
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range sims {
			simulate()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/sims)
	}
	t.Logf("%d bytes allocated per simulation", least)
	if least > 32<<10 {
		t.Errorf("%d bytes allocated per pingpong simulation, limit 32 KB", least)
	}
}
