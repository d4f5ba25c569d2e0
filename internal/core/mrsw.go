package core

import (
	"cmp"
	"fmt"
	"slices"

	"dirsim/internal/event"
	"dirsim/internal/trace"
)

// mrsw implements the multiple-readers/single-writer state-change model
// shared — as the paper observes in Section 5 — by Dir0B, the sequential
// invalidation schemes DiriNB/DirNNB, the limited-pointer-plus-broadcast
// schemes DiriB, and the snoopy WTI protocol: a clean block may live in any
// number of caches, a written block in exactly one. The variants differ in
// how invalidations are delivered (directed messages, limited broadcast, or
// full broadcast), in how much the directory knows (two state bits, i
// pointers, a full bit map, or nothing at all for a snoopy bus), and in
// whether writes propagate to memory (write-through for WTI).
//
// Because the state-change model is shared, all variants produce identical
// event frequencies on a given trace (the paper's Table 4 shows one column
// for Dir0B and WTI for this reason) — except DiriNB with i smaller than
// the machine, whose pointer-overflow invalidations genuinely change the
// state evolution and raise the miss rate.
type mrsw struct {
	name string
	ncpu int

	// ptrs is the number of cache pointers a directory entry can hold:
	// 0 for Dir0B (state bits only), i for DiriB/DiriNB, ncpu for the
	// full-map DirNNB, and ignored for snoopy WTI.
	ptrs int
	// broadcast selects the B schemes: on pointer overflow the entry
	// falls back to broadcast invalidation instead of limiting copies.
	broadcast bool
	// limitCopies selects the NB schemes with i < ncpu: a read fill that
	// would exceed i copies forcibly invalidates an existing copy.
	limitCopies bool
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

	blocks BlockTable[mrswBlock]
	// fifo is each block's pointer fill order, the DiriNB victim choice.
	// Only the limitCopies overflow path reads it, so it is kept out of
	// the per-block state and nil for every other variant.
	fifo map[trace.Block][]uint8

	// Checker, when non-nil, receives data-movement callbacks so tests
	// can assert value coherence.
	Checker *Checker
}

// mrswBlock is the global coherence state of one block: 24 bytes, the
// zero value being a block no cache has referenced.
type mrswBlock struct {
	holders Set   // caches with a valid copy
	ptrSet  Set   // directory pointer contents for DiriB/DiriNB/full-map
	owner   uint8 // valid when dirty
	dirty   bool  // memory is stale; owner holds the only copy
	bcast   bool  // DiriB broadcast bit / Dir0B "clean in unknown caches"
	seenBit
}

// ownedBy reports whether c holds the block dirty: a write by c needs no
// one's permission and no one's copy dies.
func (bl *mrswBlock) ownedBy(c uint8) bool { return bl.dirty && bl.owner == c }

// Variant constructors ---------------------------------------------------

// NewDir0B returns the Archibald–Baer scheme: a two-bit directory entry
// (uncached / clean-in-exactly-one / clean-in-unknown-many / dirty-in-one)
// with broadcast invalidations.
func NewDir0B(ncpu int) Protocol {
	checkCPUs(ncpu)
	return &mrsw{name: "Dir0B", ncpu: ncpu, ptrs: 0, broadcast: true}
}

// NewDirNNB returns the Censier–Feautrier full-map scheme: one valid bit
// per cache in every directory entry, invalidations delivered as directed
// sequential messages, no broadcasts ever.
func NewDirNNB(ncpu int) Protocol {
	checkCPUs(ncpu)
	return &mrsw{name: "DirNNB", ncpu: ncpu, ptrs: ncpu}
}

// NewDiriNB returns the limited-pointer no-broadcast scheme Dir_i NB: at
// most i cached copies of a block may exist; a fill beyond that forcibly
// invalidates the oldest copy. i must be at least 1 (Dir0NB cannot grant
// exclusive access, as the paper notes).
func NewDiriNB(ncpu, i int) Protocol {
	checkCPUs(ncpu)
	if i < 1 {
		panic("core: DiriNB requires at least one pointer")
	}
	if i >= ncpu {
		p := NewDirNNB(ncpu).(*mrsw)
		p.name = fmt.Sprintf("Dir%dNB", i)
		return p
	}
	return &mrsw{name: fmt.Sprintf("Dir%dNB", i), ncpu: ncpu, ptrs: i,
		limitCopies: true, fifo: map[trace.Block][]uint8{}}
}

// NewDiriB returns the limited-pointer broadcast scheme Dir_i B: the entry
// holds up to i pointers plus a broadcast bit; overflow sets the bit and
// later invalidation falls back to broadcast. Dir1B is the single-pointer
// instance studied in Section 6.
func NewDiriB(ncpu, i int) Protocol {
	checkCPUs(ncpu)
	if i < 1 {
		panic("core: DiriB requires at least one pointer (use NewDir0B for i=0)")
	}
	return &mrsw{name: fmt.Sprintf("Dir%dB", i), ncpu: ncpu, ptrs: i, broadcast: true}
}

// NewYenFu returns the Yen–Fu refinement of the Censier–Feautrier
// full-map scheme (paper, Section 2): directory organization and
// invalidation delivery are DirNNB's, but a per-cache "single" bit lets a
// write to an unshared clean block skip the directory query, at the cost
// of control traffic to keep the bits current.
func NewYenFu(ncpu int) Protocol {
	checkCPUs(ncpu)
	return &mrsw{name: "YenFu", ncpu: ncpu, ptrs: ncpu, singleBit: true}
}

// NewWTI returns the write-through-with-invalidate snoopy protocol: all
// writes go to memory, snooping caches invalidate matching blocks, memory
// is never stale.
func NewWTI(ncpu int) Protocol {
	checkCPUs(ncpu)
	return &mrsw{name: "WTI", ncpu: ncpu, writeThrough: true, broadcast: true}
}

// Engine ------------------------------------------------------------------

func (p *mrsw) Name() string { return p.name }
func (p *mrsw) CPUs() int    { return p.ncpu }

// SetChecker attaches a value-coherence checker (tests only).
func (p *mrsw) SetChecker(c *Checker) { p.Checker = c }

func (p *mrsw) Access(r trace.Ref) (res event.Result) {
	p.access(r, &res)
	return res
}

// Both batch loops run the hit tests of read and write ahead of access. A
// reference that passes is plain: it changes no state and takes no action,
// so its whole result is its type, and it costs one table lookup and then
// one store (AccessBatch) or one count (AccessSparse). Whatever the tests
// let through, access classifies as it always has; a CPU out of range
// skips them for access to reject. With a Checker attached, hits move
// data too and every reference goes through access.

// AccessBatch implements Batcher: each result is classified in place in
// the grown slice, with no per-reference dispatch or copy.
func (p *mrsw) AccessBatch(refs []trace.Ref, out []event.Result) []event.Result {
	n := len(out)
	out = slices.Grow(out, len(refs))[:n+len(refs)]
	for i, r := range refs {
		res := &out[n+i]
		if int(r.CPU) < p.ncpu && p.Checker == nil {
			switch r.Kind {
			case trace.Instr:
				*res = event.Result{Type: event.Instr}
				continue
			case trace.Read:
				if p.blocks.At(r.Block()).holders.Has(r.CPU) {
					*res = event.Result{Type: event.RdHit}
					continue
				}
			case trace.Write:
				if !p.writeThrough && p.blocks.At(r.Block()).ownedBy(r.CPU) {
					*res = event.Result{Type: event.WrHitOwn}
					continue
				}
			}
		}
		p.access(r, res)
	}
	return out
}

// AccessSparse implements Sparser.
func (p *mrsw) AccessSparse(refs []trace.Ref, plain *Plain, out []event.Result) []event.Result {
	if p.Checker != nil {
		return sparseFromDense(p, refs, plain, out)
	}
	for _, r := range refs {
		if int(r.CPU) < p.ncpu {
			switch r.Kind {
			case trace.Instr:
				plain[event.Instr]++
				continue
			case trace.Read:
				if p.blocks.At(r.Block()).holders.Has(r.CPU) {
					plain[event.RdHit]++
					continue
				}
			case trace.Write:
				// A write-through write is on the bus even when it hits.
				if !p.writeThrough && p.blocks.At(r.Block()).ownedBy(r.CPU) {
					plain[event.WrHitOwn]++
					continue
				}
			}
		}
		out = append(out, event.Result{})
		p.access(r, &out[len(out)-1])
	}
	return out
}

// access classifies one reference into res.
func (p *mrsw) access(r trace.Ref, res *event.Result) {
	if int(r.CPU) >= p.ncpu {
		panic(fmt.Sprintf("core: %s: cpu %d out of range [0,%d)", p.name, r.CPU, p.ncpu))
	}
	*res = event.Result{}
	switch r.Kind {
	case trace.Instr:
		res.Type = event.Instr
	case trace.Read:
		p.read(r.CPU, r.Block(), res)
	case trace.Write:
		p.write(r.CPU, r.Block(), res)
	default:
		panic(fmt.Sprintf("core: %s: invalid reference kind %d", p.name, r.Kind))
	}
}

func (p *mrsw) read(c uint8, b trace.Block, res *event.Result) {
	bl := p.blocks.At(b)
	if bl.holders.Has(c) {
		p.Checker.ReadHit(c, b)
		res.Type = event.RdHit
		return
	}
	first := bl.touch()
	res.Holders = bl.holders.Count()
	switch {
	case bl.dirty:
		// The owner flushes the dirty block to memory; the requester
		// snarfs the data off the write-back. Both end up with clean
		// copies (Dir0B/DirNNB semantics). Under write-through memory
		// was never stale, so the fill comes straight from memory.
		res.Type = event.RdMissDirty
		if p.writeThrough {
			p.Checker.FillFromMemory(c, b)
		} else {
			res.WriteBack = true
			res.CacheSupply = true
			p.Checker.WriteBack(bl.owner, b)
			p.Checker.FillFromCache(c, bl.owner, b)
		}
		bl.dirty = false
		bl.holders = bl.holders.Add(c)
	case !bl.holders.Empty():
		res.Type = event.RdMissClean
		if p.singleBit && bl.holders.Count() == 1 {
			// The previous sole holder's single bit must be
			// cleared before a second copy exists.
			res.Control = 1
		}
		p.Checker.FillFromMemory(c, b)
		bl.holders = bl.holders.Add(c)
	default:
		if first {
			res.Type = event.RdMissFirst
		} else {
			res.Type = event.RdMissMem
		}
		p.Checker.FillFromMemory(c, b)
		bl.holders = bl.holders.Add(c)
	}
	p.dirRecordFill(bl, c, b, res)
}

// dirRecordFill updates the directory entry after a read fill and, for
// DiriNB, enforces the copy limit by invalidating the oldest pointer.
func (p *mrsw) dirRecordFill(bl *mrswBlock, c uint8, b trace.Block, res *event.Result) {
	if p.writeThrough {
		return // snoopy: no directory
	}
	if bl.ptrSet.Has(c) {
		return
	}
	if p.ptrs == 0 {
		// Dir0B: only the clean-one/clean-many distinction is kept.
		bl.bcast = bl.holders.Count() > 1
		return
	}
	if bl.ptrSet.Count() < p.ptrs {
		bl.ptrSet = bl.ptrSet.Add(c)
		if p.limitCopies {
			p.fifo[b] = append(p.fifo[b], c)
		}
		return
	}
	// Pointer overflow.
	if p.limitCopies {
		// DiriNB: invalidate the oldest copy to make room; the newcomer
		// takes the youngest place in the (full) fill order.
		fifo := p.fifo[b]
		victim := fifo[0]
		copy(fifo, fifo[1:])
		fifo[len(fifo)-1] = c
		bl.ptrSet = bl.ptrSet.Del(victim).Add(c)
		bl.holders = bl.holders.Del(victim)
		p.Checker.Invalidate(victim, b)
		res.ForcedInval++
		return
	}
	// DiriB: set the broadcast bit, leave pointers as they are.
	bl.bcast = true
}

func (p *mrsw) write(c uint8, b trace.Block, res *event.Result) {
	bl := p.blocks.At(b)
	switch {
	case bl.ownedBy(c):
		res.Type = event.WrHitOwn
		p.Checker.Write(c, b)
	case bl.holders.Has(c):
		others := bl.holders.Del(c)
		res.Type = event.WrHitClean
		res.Holders = others.Count()
		p.invalidate(bl, others, b, res, true)
		p.Checker.Write(c, b)
		p.takeExclusive(bl, c, b)
	default:
		first := bl.touch()
		res.Holders = bl.holders.Count()
		switch {
		case bl.dirty:
			res.Type = event.WrMissDirty
			if p.writeThrough {
				p.Checker.FillFromMemory(c, b)
			} else {
				res.WriteBack = true
				res.CacheSupply = true
				p.Checker.WriteBack(bl.owner, b)
				p.Checker.FillFromCache(c, bl.owner, b)
			}
			p.flushInval(bl, res)
			p.Checker.Invalidate(bl.owner, b)
		case !bl.holders.Empty():
			res.Type = event.WrMissClean
			p.Checker.FillFromMemory(c, b)
			p.invalidate(bl, bl.holders, b, res, false)
		default:
			if first {
				res.Type = event.WrMissFirst
			} else {
				res.Type = event.WrMissMem
			}
			p.Checker.FillFromMemory(c, b)
		}
		p.Checker.Write(c, b)
		p.takeExclusive(bl, c, b)
	}
	if p.writeThrough {
		res.Update = true
		p.Checker.WriteThrough(c, b)
	}
}

// invalidate fills the Result's invalidation fields for eliminating the
// given copies, according to the variant's delivery mechanism, and tells
// the checker. hit distinguishes a write hit (the directory must be
// queried before the writer may proceed) from a write miss (the directory
// is consulted as part of the miss and the lookup overlaps the memory
// access).
func (p *mrsw) invalidate(bl *mrswBlock, victims Set, b trace.Block, res *event.Result, hit bool) {
	k := victims.Count()
	if hit && !p.writeThrough {
		// Yen–Fu: the writer's single bit answers the "am I alone?"
		// question locally, so an unshared write skips the directory.
		res.DirCheck = !(p.singleBit && k == 0)
	}
	if k > 0 {
		switch {
		case p.writeThrough:
			// Snoopy: copies die by watching the write on the bus.
			res.Broadcast = true
		case p.ptrs == 0:
			// Dir0B: the entry cannot name the holders.
			// A sole clean copy held by the writer itself needs no
			// invalidation at all (the clean-in-exactly-one state);
			// that case arrives here with k == 0.
			res.Broadcast = true
		case bl.bcast:
			// DiriB after overflow.
			res.Broadcast = true
		default:
			res.Inval = k
		}
	}
	if p.Checker != nil {
		for _, v := range victims.Members(nil) {
			p.Checker.Invalidate(v, b)
		}
	}
}

// flushInval fills the invalidation fields for purging a dirty owner on a
// write miss. Directory entries always know a dirty owner exactly when
// they have at least one pointer; Dir0B must broadcast the flush request.
func (p *mrsw) flushInval(bl *mrswBlock, res *event.Result) {
	switch {
	case p.writeThrough:
		res.Broadcast = true
	case p.ptrs == 0:
		res.Broadcast = true
	default:
		res.Inval = 1
	}
}

// takeExclusive installs c as the sole (dirty) holder and resets the
// directory entry accordingly.
func (p *mrsw) takeExclusive(bl *mrswBlock, c uint8, b trace.Block) {
	bl.holders = Set(0).Add(c)
	bl.dirty = true
	bl.owner = c
	bl.bcast = false
	if p.ptrs > 0 {
		bl.ptrSet = bl.holders
	}
	if p.limitCopies {
		p.fifo[b] = append(p.fifo[b][:0], c)
	}
}

// CheckInvariants validates the engine's internal consistency.
func (p *mrsw) CheckInvariants() error {
	return cmp.Or(p.blocks.Each(func(b trace.Block, bl *mrswBlock) error {
		if bl.dirty {
			if !bl.holders.Only(bl.owner) {
				return fmt.Errorf("%s: block %#x dirty but holders=%b owner=%d", p.name, b, bl.holders, bl.owner)
			}
		}
		if p.limitCopies && bl.holders.Count() > p.ptrs {
			return fmt.Errorf("%s: block %#x has %d copies, limit %d", p.name, b, bl.holders.Count(), p.ptrs)
		}
		if p.ptrs > 0 {
			if bl.ptrSet&^bl.holders != 0 {
				return fmt.Errorf("%s: block %#x directory points at non-holders (ptr=%b holders=%b)", p.name, b, bl.ptrSet, bl.holders)
			}
			if !bl.bcast && bl.ptrSet != bl.holders {
				return fmt.Errorf("%s: block %#x directory lost holders without broadcast bit (ptr=%b holders=%b)", p.name, b, bl.ptrSet, bl.holders)
			}
		}
		if p.ptrs == 0 && !p.writeThrough {
			many := bl.holders.Count() > 1
			if bl.bcast != many {
				return fmt.Errorf("%s: block %#x clean-many bit %v but %d holders", p.name, b, bl.bcast, bl.holders.Count())
			}
		}
		return nil
	}), p.Checker.Err())
}
