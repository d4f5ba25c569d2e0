package core

import (
	"dirsim/internal/event"
	"dirsim/internal/trace"
)

// NewDragon returns the Dragon snoopy update protocol for ncpu caches,
// the best-performing snoopy scheme in the paper's comparison. Instead of
// invalidating stale copies, a write to a shared block broadcasts the
// written word and every sharer updates in place. A "shared" bus line
// (asserted by any snooping cache that holds the address) tells the writer
// whether the broadcast is necessary at all: a write by the only holder
// stays in its cache (wh-local), marking the copy stale.
//
// With infinite caches a block, once loaded, stays loaded forever: the
// only misses are cold fills, and the interesting events are write hits to
// shared blocks (wh-distrib), which each cost a bus transaction. The last
// writer owns a stale block, shared or not, and supplies it on a miss.
func NewDragon(ncpu int) Protocol {
	return newEngine(ncpu, scheme{name: "Dragon", set: fD, hit: event.Result{Type: event.WrHitLocal}, ownerUpdate: true, step: dragonStep, sharedDirty: true})
}

func dragonStep(ck *Checker, bl *block, c uint8, b trace.Block, write bool, res *event.Result) {
	if bl.holders.Has(c) {
		// Shared line asserted: broadcast the word, sharers update.
		res.Type = event.WrHitShared
	} else {
		// A miss: fetch the block, then a write behaves like a write hit.
		if bl.flags&fD != 0 {
			res.CacheSupply = true
			ck.FillFromCache(c, bl.owner, b)
		} else {
			ck.FillFromMemory(c, b)
		}
		bl.holders = bl.holders.Add(c)
		if !write {
			return
		}
	}
	ck.Write(c, b)
	bl.flags |= fD
	bl.owner = c
	if res.Holders > 0 {
		res.Update = true
		res.Broadcast = true
		ck.UpdateSharers(b)
	}
}
