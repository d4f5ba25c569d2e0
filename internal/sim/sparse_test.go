package sim

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"dirsim/internal/core"
	"dirsim/internal/event"
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
// which every reference produced one — 40 bytes a reference, 160 KB at
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
	// The reference buffer is not what this test is about.
	rest := int64(after.TotalAlloc-before.TotalAlloc) - DefaultBatchRefs*int64(unsafe.Sizeof(trace.Ref{}))
	// About 110 KB of tables and tallies; a results buffer sized for the
	// batch would add 160 KB.
	if rest > 192<<10 {
		t.Errorf("%d bytes allocated besides the reference buffer, limit 192 KB", rest)
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
