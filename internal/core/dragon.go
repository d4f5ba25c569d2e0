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

// AccessBatch implements Batcher: each result is classified in place in
// the grown slice, with no per-reference dispatch or copy.
func (p *dragon) AccessBatch(refs []trace.Ref, out []event.Result) []event.Result {
	n := len(out)
	out = slices.Grow(out, len(refs))[:n+len(refs)]
	for i, r := range refs {
		p.access(r, &out[n+i])
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
	if bl.holders.Has(c) {
		others := bl.holders.Del(c)
		p.Checker.Write(c, b)
		bl.stale = true
		bl.owner = c
		if others.Empty() {
			res.Type = event.WrHitLocal
			return
		}
		// Shared line asserted: broadcast the word, sharers update.
		p.Checker.UpdateSharers(b)
		res.Type = event.WrHitShared
		res.Holders = others.Count()
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
