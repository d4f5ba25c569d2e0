package core

import (
	"cmp"
	"fmt"
	"slices"

	"dirsim/internal/event"
	"dirsim/internal/trace"
)

// dragon implements the Dragon snoopy update protocol, the
// best-performing snoopy scheme in the paper's comparison. Instead of
// invalidating stale copies, a write to a shared block broadcasts the
// written word and every sharer updates in place. A "shared" bus line
// (asserted by any snooping cache that holds the address) tells the writer
// whether the broadcast is necessary at all.
//
// With infinite caches a block, once loaded, stays loaded forever: the
// only misses are cold fills, and the interesting events are write hits to
// shared blocks (wh-distrib), which each cost a bus transaction.
type dragon struct {
	ncpu   int
	blocks BlockTable[dragonBlock]

	Checker *Checker
}

type dragonBlock struct {
	holders Set
	// stale reports that memory does not have the latest value; the last
	// writer (owner) is responsible for supplying data on a miss.
	stale bool
	owner uint8
	seenBit
}

// writeLocal applies a write by c if c holds the only copy — the shared
// line stays low and the write goes no further than c's cache (wh-local) —
// and reports whether it did.
func (bl *dragonBlock) writeLocal(c uint8) bool {
	if !bl.holders.Only(c) {
		return false
	}
	bl.stale = true
	bl.owner = c
	return true
}

// NewDragon returns a Dragon engine for ncpu caches.
func NewDragon(ncpu int) Protocol {
	checkCPUs(ncpu)
	return &dragon{ncpu: ncpu}
}

func (p *dragon) Name() string { return "Dragon" }
func (p *dragon) CPUs() int    { return p.ncpu }

// SetChecker attaches a value-coherence checker (tests only).
func (p *dragon) SetChecker(c *Checker) { p.Checker = c }

func (p *dragon) Access(r trace.Ref) (res event.Result) {
	p.access(r, &res)
	return res
}

// Both batch loops run the hit tests of read and write ahead of access, as
// mrsw's do: a reference that passes is plain, its whole result its type.
// A local write hit is plain too, but not a no-op — writeLocal marks the
// sole copy stale.

// AccessBatch implements Batcher: each result is classified in place in
// the grown slice, with no per-reference dispatch or copy.
func (p *dragon) AccessBatch(refs []trace.Ref, out []event.Result) []event.Result {
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
				if p.blocks.At(r.Block()).writeLocal(r.CPU) {
					*res = event.Result{Type: event.WrHitLocal}
					continue
				}
			}
		}
		p.access(r, res)
	}
	return out
}

// AccessSparse implements Sparser.
func (p *dragon) AccessSparse(refs []trace.Ref, plain *Plain, out []event.Result) []event.Result {
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
				if p.blocks.At(r.Block()).writeLocal(r.CPU) {
					plain[event.WrHitLocal]++
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
func (p *dragon) access(r trace.Ref, res *event.Result) {
	if int(r.CPU) >= p.ncpu {
		panic(fmt.Sprintf("core: Dragon: cpu %d out of range [0,%d)", r.CPU, p.ncpu))
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
		panic(fmt.Sprintf("core: Dragon: invalid reference kind %d", r.Kind))
	}
}

func (p *dragon) fill(bl *dragonBlock, c uint8, b trace.Block, res *event.Result) {
	res.Holders = bl.holders.Count()
	if bl.stale {
		// The last writer supplies the block cache-to-cache.
		res.CacheSupply = true
		p.Checker.FillFromCache(c, bl.owner, b)
	} else {
		p.Checker.FillFromMemory(c, b)
	}
	bl.holders = bl.holders.Add(c)
}

func (p *dragon) read(c uint8, b trace.Block, res *event.Result) {
	bl := p.blocks.At(b)
	if bl.holders.Has(c) {
		p.Checker.ReadHit(c, b)
		res.Type = event.RdHit
		return
	}
	first := bl.touch()
	switch {
	case bl.stale:
		res.Type = event.RdMissDirty
	case !bl.holders.Empty():
		res.Type = event.RdMissClean
	case first:
		res.Type = event.RdMissFirst
	default:
		res.Type = event.RdMissMem
	}
	p.fill(bl, c, b, res)
}

func (p *dragon) write(c uint8, b trace.Block, res *event.Result) {
	bl := p.blocks.At(b)
	if bl.writeLocal(c) {
		p.Checker.Write(c, b)
		res.Type = event.WrHitLocal
		return
	}
	if bl.holders.Has(c) {
		// Shared line asserted: broadcast the word, sharers update.
		p.Checker.Write(c, b)
		bl.stale = true
		bl.owner = c
		p.Checker.UpdateSharers(b)
		res.Type = event.WrHitShared
		res.Holders = bl.holders.Del(c).Count()
		res.Broadcast = true
		res.Update = true
		return
	}
	// Write miss: fetch the block, then behave like a write hit.
	first := bl.touch()
	switch {
	case bl.stale:
		res.Type = event.WrMissDirty
	case !bl.holders.Empty():
		res.Type = event.WrMissClean
	case first:
		res.Type = event.WrMissFirst
	default:
		res.Type = event.WrMissMem
	}
	p.fill(bl, c, b, res)
	p.Checker.Write(c, b)
	bl.stale = true
	bl.owner = c
	if res.Holders > 0 {
		res.Update = true
		res.Broadcast = true
		p.Checker.UpdateSharers(b)
	}
}

func (p *dragon) CheckInvariants() error {
	return cmp.Or(p.blocks.Each(func(b trace.Block, bl *dragonBlock) error {
		if bl.stale && !bl.holders.Has(bl.owner) {
			return fmt.Errorf("Dragon: block %#x stale but owner %d is not a holder", b, bl.owner)
		}
		return nil
	}), p.Checker.Err())
}
