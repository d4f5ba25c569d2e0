package core

import (
	"runtime"
	"testing"
	"unsafe"

	"dirsim/internal/event"
	"dirsim/internal/trace"
	"dirsim/internal/workload"
)

// loopEngines builds one of each engine on the shared loop: every fixed
// scheme name (DirCV among them) and the parameterized pointer schemes.
func loopEngines(t *testing.T, ncpu int) []Protocol {
	t.Helper()
	var engines []Protocol
	for _, name := range append(Schemes(), "Dir1B", "Dir2B", "Dir2NB") {
		p, err := NewByName(name, ncpu)
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, p)
	}
	return engines
}

// everyEngine builds one of each engine in the package: the loop engines,
// the Dir1NB specification and the finite-cache engine.
func everyEngine(t *testing.T, ncpu int) []Protocol {
	return append(loopEngines(t, ncpu), NewDir1NBSpec(ncpu), newFinite(t, ncpu, 32))
}

// TestBatchMatchesAccess holds AccessBatch identical to per-reference
// Access for every engine, with and without a value-coherence checker,
// over the standard workloads and a contended random stream, in batches
// whose size never divides the stream.
func TestBatchMatchesAccess(t *testing.T) {
	streams := map[string][]trace.Ref{"random": randomRefs(3, 4, 48, 30000)}
	for _, cfg := range workload.StandardConfigs(4, 20000) {
		streams[cfg.Name] = workload.MustGenerate(cfg).Refs
	}
	for name, refs := range streams {
		for _, checked := range []bool{false, true} {
			batched, single := everyEngine(t, 4), everyEngine(t, 4)
			for i, p := range batched {
				q := single[i]
				if checked && (!Attach(p, NewChecker()) || !Attach(q, NewChecker())) {
					t.Fatalf("%s does not accept a checker", p.Name())
				}
				var got []event.Result
				for rest := refs; len(rest) > 0; {
					n := min(len(rest), 1021)
					got = AccessBatch(p, rest[:n], got)
					rest = rest[n:]
				}
				for j, r := range refs {
					if want := q.Access(r); got[j] != want {
						t.Fatalf("%s over %s (checked=%v) ref %d %v: batch %+v, access %+v",
							p.Name(), name, checked, j, r, got[j], want)
					}
				}
				for _, e := range []Protocol{p, q} {
					if err := e.CheckInvariants(); err != nil {
						t.Errorf("%s over %s (checked=%v): %v", e.Name(), name, checked, err)
					}
				}
			}
		}
	}
}

// TestBatchAllocs asserts the steady-state batched loop of every scheme
// on the shared loop allocates nothing: once a trace's pages exist,
// classifying it again touches only the table and the caller's result
// buffer.
func TestBatchAllocs(t *testing.T) {
	refs := workload.POPS(4, 20000).Refs
	for _, p := range loopEngines(t, 4) {
		if _, ok := p.(Batcher); !ok {
			t.Errorf("%s has no native AccessBatch", p.Name())
		}
		out := AccessBatch(p, refs, nil)
		if allocs := testing.AllocsPerRun(5, func() { out = AccessBatch(p, refs, out[:0]) }); allocs != 0 {
			t.Errorf("%s: steady-state batch allocates %.0f times", p.Name(), allocs)
		}
	}
}

// TestBlockStateSizes pins the sizing the block table was measured with:
// 16 bytes of state per block at most — the one state every
// infinite-cache scheme runs on, and the finite engine and the Dir1NB
// specification too — 128 blocks per page at most, nothing allocated
// before the first reference. Larger states or pages spend the run
// zeroing memory and show up in the resident set of every short
// simulation.
func TestBlockStateSizes(t *testing.T) {
	if pageSize > 128 {
		t.Errorf("pages hold %d blocks, limit 128", pageSize)
	}
	// The service builds engines just to validate scheme names: an
	// untouched table must stay two words, its page cache unallocated.
	if size := unsafe.Sizeof(blockTable[block]{}); size > 16 {
		t.Errorf("an untouched blockTable is %d bytes, limit 16", size)
	}
	for name, size := range map[string]uintptr{
		"block":       unsafe.Sizeof(block{}),
		"dir1nbBlock": unsafe.Sizeof(dir1nbBlock{}),
		"lostCopies":  unsafe.Sizeof(lostCopies{}),
	} {
		if size > 16 {
			t.Errorf("%s is %d bytes, limit 16", name, size)
		}
	}
}

// TestBlockTableSparseFootprint touches 10 000 blocks that each sit alone
// on a page — the worst case for a paged table — and bounds the heap each
// touched page costs.
func TestBlockTableSparseFootprint(t *testing.T) {
	const blocks = 10_000
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	p := NewDirNNB(4)
	before := heap()
	for i := 0; i < blocks; i++ {
		b := trace.Block(uint64(i) << 40)
		p.Access(trace.Ref{Addr: b.Addr(), CPU: uint8(i % 4), Kind: trace.Write})
	}
	perPage := float64(heap()-before) / blocks
	runtime.KeepAlive(p)
	// 128 states of 16 bytes are 2 KiB; the page map's entry is noise.
	if perPage > 3<<10 {
		t.Errorf("a touched page costs %.0f bytes of heap, limit %d", perPage, 3<<10)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestZeroStateInvariants checks that every engine's invariants accept
// the never-referenced slots of a touched page: one reference allocates a
// page whose other 127 states are zero.
func TestZeroStateInvariants(t *testing.T) {
	for _, p := range everyEngine(t, 4) {
		if err := p.CheckInvariants(); err != nil {
			t.Errorf("%s, untouched: %v", p.Name(), err)
		}
		p.Access(rd(1, 7))
		if err := p.CheckInvariants(); err != nil {
			t.Errorf("%s, one block touched: %v", p.Name(), err)
		}
	}
}

// TestBlockTableSharedSlot evicts a page from its recent slot with
// another page that hashes to the same slot: the fast path then misses
// the evicted page, and the load gives back the slot it had, state and
// all.
func TestBlockTableSharedSlot(t *testing.T) {
	slot := func(key uint64) uint64 { return key * recentHash >> (64 - recentBits) }
	k1 := uint64(3)
	k2 := k1 + 1
	for slot(k2) != slot(k1) {
		k2++
	}
	b1, b2 := trace.Block(k1<<pageBits|5), trace.Block(k2<<pageBits|9)
	var tbl blockTable[block]
	p1 := tbl.At(b1)
	p1.owner = 7
	if got := tbl.cached(b1); got != p1 {
		t.Fatalf("fast path after the load: %p, want %p", got, p1)
	}
	p2 := tbl.At(b2)
	if p2 == p1 {
		t.Fatal("two blocks share a slot")
	}
	if got := tbl.cached(b1); got != nil {
		t.Fatalf("fast path found the evicted page: %p", got)
	}
	if got := tbl.load(b1); got != p1 || got.owner != 7 {
		t.Fatalf("load after eviction: %p (owner %d), want %p (owner 7)", got, got.owner, p1)
	}
	if tbl.cached(b1) != p1 || tbl.cached(b2) != nil {
		t.Fatal("the load did not take the slot back")
	}
}

// TestBlockTableCachedHitAllocs holds a fast-path hit to a compare and
// an index: no allocation.
func TestBlockTableCachedHitAllocs(t *testing.T) {
	var tbl blockTable[block]
	b := trace.Block(0x1234)
	want := tbl.load(b)
	var got *block
	if allocs := testing.AllocsPerRun(100, func() { got = tbl.cached(b) }); allocs != 0 {
		t.Errorf("a fast-path hit allocates %.0f times", allocs)
	}
	if got != want {
		t.Errorf("fast path: %p, want %p", got, want)
	}
}

// TestBlockTableZeroUntilLoad: the zero table is empty, its fast path
// misses without allocating anything, and only the first load allocates
// the page map and the recent slots.
func TestBlockTableZeroUntilLoad(t *testing.T) {
	var tbl blockTable[block]
	b := trace.Block(42)
	if got := tbl.cached(b); got != nil {
		t.Fatalf("zero table's fast path: %p, want nil", got)
	}
	if tbl.pages != nil || tbl.recent != nil {
		t.Fatal("the fast path allocated the table")
	}
	if *tbl.load(b) != (block{}) || tbl.pages == nil || tbl.recent == nil {
		t.Fatal("the first load left the table unallocated or the slot not zero")
	}
	if tbl.cached(b) == nil {
		t.Error("the fast path misses the page just loaded")
	}
}
