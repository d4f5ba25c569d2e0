package core

import (
	"errors"
	"fmt"

	"dirsim/internal/event"
	"dirsim/internal/trace"
)

// NewMESI returns the Illinois protocol (Papamarcos & Patel, the paper's
// reference [5]) for ncpu caches — the four-state snoopy invalidation
// protocol now known as MESI. Relative to the Dir0B/WTI state model it
// adds the exclusive-clean (E) state: a cache that loaded a block no one
// else held may write it silently, with no bus traffic at all. Illinois
// also supplies misses cache-to-cache whenever any cache holds the block;
// a modified supplier writes memory back in the same transaction.
//
// fX marks a sole copy in E or M, fD one in M.
func NewMESI(ncpu int) Protocol {
	return newEngine(ncpu, scheme{name: "MESI", need: fX, set: fD, hit: event.Result{Type: event.WrHitOwn}, step: mesiStep, check: mesiCheck})
}

func mesiStep(ck *Checker, bl *block, c uint8, b trace.Block, write bool, res *event.Result) {
	if bl.holders.Has(c) {
		// S: broadcast an invalidation signal.
		res.Broadcast = true
		ck.invalidateAll(bl.holders.Del(c), b)
	} else {
		switch {
		case bl.flags&fD != 0:
			// The M copy supplies the requester and flushes memory in
			// the same bus transaction.
			res.CacheSupply = true
			res.WriteBack = true
			ck.WriteBack(bl.owner, b)
			ck.FillFromCache(c, bl.owner, b)
		case !bl.holders.Empty():
			res.CacheSupply = true
			ck.FillFromCache(c, bl.holders.First(), b)
		default:
			ck.FillFromMemory(c, b)
		}
		if !write {
			// E when alone, S otherwise: any second fill ends E and M.
			if bl.holders.Empty() {
				bl.flags |= fX
				bl.owner = c
			} else {
				bl.flags &^= fD | fX
			}
			bl.holders = bl.holders.Add(c)
			return
		}
		if !bl.holders.Empty() {
			res.Broadcast = true
			ck.invalidateAll(bl.holders, b)
		}
	}
	ck.Write(c, b)
	bl.holders = Set(0).Add(c)
	bl.flags |= fD | fX
	bl.owner = c
}

func mesiCheck(bl *block) error {
	switch {
	case bl.flags&fX != 0 && bl.holders.Count() != 1:
		return fmt.Errorf("exclusive with %d holders", bl.holders.Count())
	case bl.flags&fD != 0 && bl.flags&fX == 0:
		return errors.New("modified but not exclusive")
	}
	return nil
}
