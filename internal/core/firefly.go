package core

import (
	"dirsim/internal/event"
	"dirsim/internal/trace"
)

// NewFirefly returns the DEC Firefly snoopy update protocol (Thacker &
// Stewart, the paper's reference [3]) for ncpu caches. Like Dragon it
// updates sharers instead of invalidating them, but writes to shared
// blocks also go through to memory, so memory is stale only for blocks a
// single cache holds dirty. A miss is supplied by the caches when the
// shared line is asserted, by memory otherwise.
func NewFirefly(ncpu int) Protocol {
	return newEngine(ncpu, scheme{name: "Firefly", set: fD, hit: event.Result{Type: event.WrHitLocal}, step: fireflyStep})
}

func fireflyStep(ck *Checker, bl *block, c uint8, b trace.Block, write bool, res *event.Result) {
	if bl.holders.Has(c) {
		res.Type = event.WrHitShared
	} else {
		switch {
		case bl.flags&fD != 0:
			// The dirty holder supplies and writes memory back in the
			// same transaction; everyone ends shared.
			res.CacheSupply = true
			res.WriteBack = true
			ck.WriteBack(bl.owner, b)
			ck.FillFromCache(c, bl.owner, b)
			bl.flags &^= fD
		case !bl.holders.Empty():
			res.CacheSupply = true
			ck.FillFromCache(c, bl.holders.First(), b)
		default:
			ck.FillFromMemory(c, b)
		}
		bl.holders = bl.holders.Add(c)
		if !write {
			return
		}
	}
	ck.Write(c, b)
	if bl.holders.Only(c) {
		// Exclusive: write locally, memory goes stale.
		bl.flags |= fD
		bl.owner = c
		return
	}
	// Shared: the update goes to the sharers AND to memory (write-through
	// on shared data — the Firefly difference from Dragon), so memory
	// stays current.
	res.Update = true
	res.Broadcast = true
	ck.UpdateSharers(b)
	ck.WriteThrough(c, b)
	bl.flags &^= fD
}
