package core

import (
	"dirsim/internal/event"
	"dirsim/internal/trace"
)

// NewBerkeley returns the Berkeley Ownership snoopy protocol (Katz,
// Eggers, Wood, Perkins, Sheldon — the paper's reference [7] and the
// subject of its Section 5 cost-model aside) for ncpu caches. Its
// distinguishing features over Dir0B's state model:
//
//   - A dirty block read by another cache is supplied cache-to-cache by
//     its owner *without* updating memory: the owner moves to an
//     owned-shared state and remains responsible for the data, so memory
//     can stay stale across arbitrarily long read-sharing phases.
//   - The writer's own cache state answers the "do I need to
//     invalidate?" question, so there is no directory and no directory
//     access; invalidations ride a one-cycle bus broadcast.
//
// Only a write by the owner of an unshared block is silent.
//
// The paper estimates Berkeley by re-pricing Dir0B's event stream
// (bus.Model.Berkeley); this engine simulates the protocol outright so
// the estimate can be validated against a real state machine.
func NewBerkeley(ncpu int) Protocol {
	return newEngine(ncpu, scheme{name: "Berkeley", need: fD, hit: event.Result{Type: event.WrHitOwn}, step: berkeleyStep, sharedDirty: true})
}

func berkeleyStep(ck *Checker, bl *block, c uint8, b trace.Block, write bool, res *event.Result) {
	if bl.holders.Has(c) {
		// Shared (owned-shared by the writer, owned by another cache, or
		// unowned-clean): broadcast an invalidation. Berkeley has no
		// exclusive-clean state, so even a sole unowned copy pays it.
		res.Broadcast = true
		ck.invalidateAll(bl.holders.Del(c), b)
	} else {
		// The owner supplies and keeps ownership; memory stays stale —
		// no write-back.
		if bl.flags&fD != 0 {
			res.CacheSupply = true
			ck.FillFromCache(c, bl.owner, b)
		} else {
			ck.FillFromMemory(c, b)
		}
		if !write {
			bl.holders = bl.holders.Add(c)
			return
		}
		// The broadcast read-for-ownership invalidates every copy.
		if !bl.holders.Empty() {
			res.Broadcast = true
			ck.invalidateAll(bl.holders, b)
		}
	}
	ck.Write(c, b)
	bl.holders = Set(0).Add(c)
	bl.flags |= fD
	bl.owner = c
}
