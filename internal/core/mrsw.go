package core

import (
	"fmt"

	"dirsim/internal/event"
	"dirsim/internal/trace"
)

// mrsw is the multiple-readers/single-writer state-change model shared —
// as the paper observes in Section 5 — by Dir0B, the sequential
// invalidation schemes DiriNB/DirNNB/DirCV, the limited-pointer-plus-broadcast
// schemes DiriB, and the snoopy WTI protocol: a clean block may live in any
// number of caches, a written block in exactly one. The variants differ in
// how invalidations are delivered (directed messages, limited broadcast, or
// full broadcast), in how much the directory knows (two state bits, i
// pointers, a full bit map, a coarse code, or nothing at all for a snoopy
// bus), and in whether writes propagate to memory (write-through for WTI).
//
// Because the state-change model is shared, all variants produce identical
// event frequencies on a given trace (the paper's Table 4 shows one column
// for Dir0B and WTI for this reason) — except DiriNB with i smaller than
// the machine, whose pointer-overflow invalidations genuinely change the
// state evolution and raise the miss rate.
//
// The directory's pointers are not stored: while the broadcast bit is
// clear they name exactly the holders, and once it is set nothing reads
// them, so an entry's state is the block's holders and fB.
type mrsw struct {
	// ptrs is the number of cache pointers a directory entry can hold:
	// 0 for Dir0B (state bits only) and for snoopy WTI, i for
	// DiriB/DiriNB, ncpu for the full-map DirNNB and for DirCV.
	ptrs int
	// fifo is each block's pointer fill order, the victim choice of the
	// NB schemes with i < ncpu, whose read fill beyond i copies forcibly
	// invalidates the oldest; nil for every other variant.
	fifo map[trace.Block][]uint8
	// writeThrough selects WTI: every write is transmitted to memory,
	// memory is never stale, and invalidation happens by bus snooping
	// (free of directory queries).
	writeThrough bool
	// singleBit selects the Yen–Fu refinement of the full-map scheme:
	// each cache keeps a "single" bit that is set while it holds the
	// only copy, so a write hit on an unshared clean block proceeds
	// without a directory access. The price is an extra control message
	// to clear the previous sole holder's bit whenever a block goes
	// from one copy to two (the extra bus bandwidth the paper notes).
	singleBit bool
	// coarse selects DirCV's delivery: to every cache the coarse code of
	// the holders names.
	coarse bool
}

// newMRSW builds the engine for one variant. A write to a block the
// writer holds dirty changes no state; under write-through it still goes
// on the bus, so its outcome carries Update.
func newMRSW(ncpu int, name string, m *mrsw) *engine {
	hit := event.Result{Type: event.WrHitOwn, Update: m.writeThrough}
	return newEngine(ncpu, scheme{name: name, need: fD, hit: hit, step: m.step, check: m.check})
}

// NewDir0B returns the Archibald–Baer scheme: a two-bit directory entry
// (uncached / clean-in-exactly-one / clean-in-unknown-many / dirty-in-one)
// with broadcast invalidations.
func NewDir0B(ncpu int) Protocol {
	return newMRSW(ncpu, "Dir0B", &mrsw{})
}

// NewDirNNB returns the Censier–Feautrier full-map scheme: one valid bit
// per cache in every directory entry, invalidations delivered as directed
// sequential messages, no broadcasts ever.
func NewDirNNB(ncpu int) Protocol {
	return newMRSW(ncpu, "DirNNB", &mrsw{ptrs: ncpu})
}

// NewDiriNB returns the limited-pointer no-broadcast scheme Dir_i NB: at
// most i cached copies of a block may exist; a fill beyond that forcibly
// invalidates the oldest copy. i must be at least 1 (Dir0NB cannot grant
// exclusive access, as the paper notes).
func NewDiriNB(ncpu, i int) Protocol {
	if i < 1 {
		panic("core: DiriNB requires at least one pointer")
	}
	m := &mrsw{ptrs: min(i, ncpu)}
	if i < ncpu {
		m.fifo = map[trace.Block][]uint8{}
	}
	return newMRSW(ncpu, fmt.Sprintf("Dir%dNB", i), m)
}

// NewDiriB returns the limited-pointer broadcast scheme Dir_i B: the entry
// holds up to i pointers plus a broadcast bit; overflow sets the bit and
// later invalidation falls back to broadcast. Dir1B is the single-pointer
// instance studied in Section 6.
func NewDiriB(ncpu, i int) Protocol {
	if i < 1 {
		panic("core: DiriB requires at least one pointer (use NewDir0B for i=0)")
	}
	return newMRSW(ncpu, fmt.Sprintf("Dir%dB", i), &mrsw{ptrs: i})
}

// NewYenFu returns the Yen–Fu refinement of the Censier–Feautrier
// full-map scheme (paper, Section 2): directory organization and
// invalidation delivery are DirNNB's, but a per-cache "single" bit lets a
// write to an unshared clean block skip the directory query, at the cost
// of control traffic to keep the bits current.
func NewYenFu(ncpu int) Protocol {
	return newMRSW(ncpu, "YenFu", &mrsw{ptrs: ncpu, singleBit: true})
}

// NewWTI returns the write-through-with-invalidate snoopy protocol: all
// writes go to memory, snooping caches invalidate matching blocks, memory
// is never stale.
func NewWTI(ncpu int) Protocol {
	return newMRSW(ncpu, "WTI", &mrsw{writeThrough: true})
}

// NewCoarseVector returns the Section 6 coarse-vector directory, DirCV:
// DirNNB with each entry stored as a 2·log2(n)-bit ternary-digit code, so
// an invalidation reaches every cache the code names. The state changes
// as DirNNB's do, so the messages it sends beyond DirNNB's on one trace
// are the ones wasted on caches holding no copy.
func NewCoarseVector(ncpu int) Protocol {
	return newMRSW(ncpu, "DirCV", &mrsw{ptrs: ncpu, coarse: true})
}

// coarseNamed returns the caches below ncpu that the coarse code of a
// holder set names. The code is not stored: holders only grow between
// writes, and a write resets holders and code to the writer. Its digit k
// is "both" where the holders' index bit k differs and fixed where they
// agree; it names every index that matches the fixed digits.
func coarseNamed(holders Set, ncpu int) Set {
	if holders.Empty() {
		return 0
	}
	named := Set(1)<<ncpu - 1
	// Digit k's mask d is the set of cache indices whose bit k is 1.
	for _, d := range [...]Set{0xaaaaaaaaaaaaaaaa, 0xcccccccccccccccc, 0xf0f0f0f0f0f0f0f0,
		0xff00ff00ff00ff00, 0xffff0000ffff0000, 0xffffffff00000000} {
		switch {
		case holders&d == 0:
			named &^= d
		case holders&^d == 0:
			named &= d
		}
	}
	return named
}

func (m *mrsw) step(ck *Checker, bl *block, c uint8, b trace.Block, write bool, res *event.Result) {
	switch {
	case !write:
		if bl.flags&fD != 0 {
			// The owner's copy supplies the requester; both end up
			// clean (Dir0B/DirNNB semantics).
			m.supply(ck, bl, c, b, res)
			bl.flags &^= fD
		} else {
			if m.singleBit && bl.holders.Count() == 1 {
				// The previous sole holder's single bit must be
				// cleared before a second copy exists.
				res.Control = 1
			}
			ck.FillFromMemory(c, b)
		}
		m.fill(ck, bl, c, b, res)
		return
	case bl.holders.Has(c):
		// A write hit on a clean block: the directory is queried before
		// the writer may proceed — Yen–Fu's single bit answers "am I
		// alone?" locally, so an unshared write skips it.
		m.invalidate(ck, bl, c, b, res)
		res.DirCheck = !m.writeThrough && !(m.singleBit && res.Holders == 0)
		ck.Write(c, b)
		m.takeExclusive(bl, c, b)
	default:
		// A write miss; the directory lookup overlaps the memory access.
		switch {
		case bl.flags&fD != 0:
			m.supply(ck, bl, c, b, res)
			// Directory entries know a dirty owner exactly when they
			// have a pointer; Dir0B must broadcast the flush request.
			if m.ptrs == 0 {
				res.Broadcast = true
			} else {
				res.Inval = 1
			}
			ck.Invalidate(bl.owner, b)
		case !bl.holders.Empty():
			ck.FillFromMemory(c, b)
			m.invalidate(ck, bl, c, b, res)
		default:
			ck.FillFromMemory(c, b)
		}
		ck.Write(c, b)
		m.takeExclusive(bl, c, b)
	}
	if m.writeThrough {
		res.Update = true
		ck.WriteThrough(c, b)
	}
}

// supply fills c's copy of a dirty block: under write-through memory was
// never stale, so straight from memory; otherwise the owner flushes the
// block to memory and the requester snarfs the data off the write-back.
func (m *mrsw) supply(ck *Checker, bl *block, c uint8, b trace.Block, res *event.Result) {
	if m.writeThrough {
		ck.FillFromMemory(c, b)
		return
	}
	res.WriteBack = true
	res.CacheSupply = true
	ck.WriteBack(bl.owner, b)
	ck.FillFromCache(c, bl.owner, b)
}

// fill adds c to the holders after a read fill and updates the directory
// entry: Dir0B keeps only clean-in-one against clean-in-many; an entry
// with a free pointer records c; on overflow DiriNB invalidates the
// oldest copy to make room and DiriB sets the broadcast bit.
func (m *mrsw) fill(ck *Checker, bl *block, c uint8, b trace.Block, res *event.Result) {
	n := bl.holders.Count()
	bl.holders = bl.holders.Add(c)
	switch {
	case m.ptrs == 0:
		if n > 0 {
			bl.flags |= fB
		}
	case n < m.ptrs:
		if m.fifo != nil {
			m.fifo[b] = append(m.fifo[b], c)
		}
	case m.fifo != nil:
		// The newcomer takes the youngest place in the (full) fill order.
		fifo := m.fifo[b]
		victim := fifo[0]
		copy(fifo, fifo[1:])
		fifo[len(fifo)-1] = c
		bl.holders = bl.holders.Del(victim)
		ck.Invalidate(victim, b)
		res.ForcedInval++
	default:
		bl.flags |= fB
	}
}

// invalidate fills the Result's invalidation fields for eliminating every
// copy but writer c's, according to the variant's delivery mechanism, and
// tells the checker. A snooping bus, Dir0B's entry and a DiriB entry after
// overflow cannot name the holders and broadcast; the others send one
// directed message per copy, or per cache the coarse code names. A sole
// clean copy held by the writer itself needs no invalidation at all.
func (m *mrsw) invalidate(ck *Checker, bl *block, c uint8, b trace.Block, res *event.Result) {
	victims := bl.holders.Del(c)
	if k := victims.Count(); k > 0 {
		if m.ptrs == 0 || bl.flags&fB != 0 {
			res.Broadcast = true
		} else {
			res.Inval = int16(k)
			if m.coarse {
				res.Inval = int16(coarseNamed(bl.holders, m.ptrs).Del(c).Count())
			}
		}
	}
	ck.invalidateAll(victims, b)
}

// takeExclusive installs c as the sole (dirty) holder and resets the
// directory entry accordingly.
func (m *mrsw) takeExclusive(bl *block, c uint8, b trace.Block) {
	bl.holders = Set(0).Add(c)
	bl.owner = c
	bl.flags = bl.flags&^fB | fD
	if m.fifo != nil {
		m.fifo[b] = append(m.fifo[b][:0], c)
	}
}

func (m *mrsw) check(bl *block) error {
	n := bl.holders.Count()
	switch {
	case m.fifo != nil && n > m.ptrs:
		return fmt.Errorf("has %d copies, limit %d", n, m.ptrs)
	case m.ptrs == 0 && (bl.flags&fB != 0) != (n > 1):
		return fmt.Errorf("clean-many bit %v but %d holders", bl.flags&fB != 0, n)
	}
	return nil
}
