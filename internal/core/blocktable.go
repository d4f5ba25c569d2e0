package core

import "dirsim/internal/trace"

// Pages are 128 blocks. The per-block states stored here are at most 16
// bytes, so a touched page costs at most 2 KiB. Traces scatter their
// blocks, so pages are small: the standard workloads over 20 000
// references touch 300 to 500 blocks on 11 or 12 pages at 4 CPUs, and
// with 512-block pages they took 9 pages of 8 KiB, nine tenths zeroes,
// which made page zeroing most of what a short simulation allocates.
// Over 2 000 000 references they live on 28 to 39 pages at 4 CPUs and
// 124 to 172 at 64.
const (
	pageBits = 7
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
	// compare instead of a map probe. 512 slots keep two hot pages from
	// sharing one even at 64 CPUs. Like pages it is allocated on first
	// touch: engines are also built just to validate a scheme name, and
	// those must stay a few words.
	recent *[1 << recentBits]recentPage[T]
}

type recentPage[T any] struct {
	key  uint64
	page *[pageSize]T
}

const recentBits = 9

// At returns the state slot of block b, allocating its page on first
// touch. The pointer stays valid for the life of the table.
func (t *blockTable[T]) At(b trace.Block) *T {
	key := uint64(b) >> pageBits
	h := key * 0x9E3779B97F4A7C15 >> (64 - recentBits)
	if t.recent == nil || t.recent[h].page == nil || t.recent[h].key != key {
		t.load(key, h)
	}
	return &t.recent[h].page[uint64(b)&pageMask]
}

// load brings the page with the given key into slot h of recent.
func (t *blockTable[T]) load(key, h uint64) {
	if t.pages == nil {
		t.pages = make(map[uint64]*[pageSize]T)
		t.recent = new([1 << recentBits]recentPage[T])
	}
	pg := t.pages[key]
	if pg == nil {
		pg = new([pageSize]T)
		t.pages[key] = pg
	}
	t.recent[h] = recentPage[T]{key, pg}
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
