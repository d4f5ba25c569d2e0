package core

import "dirsim/internal/trace"

// Pages are 64 blocks. The per-block states stored here are at most 16
// bytes, so a touched page costs at most 1 KiB. Traces scatter their
// blocks, so pages are small: the standard workloads over 20 000
// references touch 300 to 500 blocks on 14 to 16 pages at 4 CPUs (16
// KiB; 11 or 12 pages, 24 KiB, with 128-block pages, and 9 pages of 8
// KiB, nine tenths zeroes, with 512-block pages), and pages are most of
// what a short simulation allocates. Over 2 000 000 references they live
// on 48 to 70 pages at 4 CPUs and 182 to 315 at 64.
const (
	pageBits = 6
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// blockTable is the per-block state store under every protocol engine —
// the paper's directory, an array in main memory with a few bits or
// pointers per block. States live by value in fixed-size pages keyed by
// the high block bits; the zero value of T is the state of a block that
// has never been referenced, so fresh pages need no initialisation, and
// the zero blockTable is empty and ready to use.
type blockTable[T any] struct {
	pages map[uint64]*[pageSize]T
	// recent is a direct-mapped cache over pages. Traces interleave a few
	// regions per CPU and leave the last-used page on every second to
	// fourth data reference, so one remembered page is not enough; a
	// hashed slot per page makes all but the first lookup of a page a
	// compare instead of a map probe. 512 slots keep hot pages mostly
	// apart even at 64 CPUs: with 64-block pages a 64-CPU replay ran
	// faster behind 512 slots than 128-block pages did, and slower behind
	// 256. Like pages it is allocated on first
	// touch: engines are also built just to validate a scheme name, and
	// those must stay a few words.
	recent *[1 << recentBits]recentPage[T]
}

type recentPage[T any] struct {
	key  uint64
	page *[pageSize]T
}

// recentBits is the log2 of recent's slot count; a page's slot is the
// top recentBits bits of its key times recentHash (Fibonacci hashing).
const (
	recentBits = 9
	recentHash = 0x9E3779B97F4A7C15
)

// At returns the state slot of block b, allocating its page on first
// touch. The pointer stays valid for the life of the table. It is cached
// and load in one call, for the engines off the hot loop; the loop
// spells the pair out, since At itself is over the inlining budget.
func (t *blockTable[T]) At(b trace.Block) *T {
	if s := t.cached(b); s != nil {
		return s
	}
	return t.load(b)
}

// cached returns the state slot of block b if its page sits in its slot
// of recent, else nil. It is the compare and index of a lookup, small
// enough to inline into the engine's loops; load is the rest.
func (t *blockTable[T]) cached(b trace.Block) *T {
	key := uint64(b) >> pageBits
	if t.recent != nil {
		if r := &t.recent[key*recentHash>>(64-recentBits)]; r.key == key && r.page != nil {
			return &r.page[uint64(b)&pageMask]
		}
	}
	return nil
}

// load brings the page of block b into its slot of recent, allocating
// the page (and, on a table's first load, the page map and recent) if
// it does not exist, and returns b's state slot. It is kept out of line
// so that every loop that inlines cached stays small.
//
//go:noinline
func (t *blockTable[T]) load(b trace.Block) *T {
	key := uint64(b) >> pageBits
	if t.pages == nil {
		t.pages = make(map[uint64]*[pageSize]T)
		t.recent = new([1 << recentBits]recentPage[T])
	}
	pg := t.pages[key]
	if pg == nil {
		pg = new([pageSize]T)
		t.pages[key] = pg
	}
	t.recent[key*recentHash>>(64-recentBits)] = recentPage[T]{key, pg}
	return &pg[uint64(b)&pageMask]
}

// Each calls f for every slot of every touched page, never-referenced
// (zero) slots included, in no particular order, and stops at the first
// error.
func (t *blockTable[T]) Each(f func(trace.Block, *T) error) error {
	for key, pg := range t.pages {
		for i := range pg {
			if err := f(trace.Block(key<<pageBits|uint64(i)), &pg[i]); err != nil {
				return err
			}
		}
	}
	return nil
}
