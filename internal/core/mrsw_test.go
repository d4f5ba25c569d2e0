package core

import (
	"fmt"
	"testing"

	"dirsim/internal/event"
	"dirsim/internal/trace"
)

// The MRSW family: Dir0B, DirNNB, DiriNB, DiriB, WTI.

func TestDir0BReadSharingThenWrite(t *testing.T) {
	p := NewDir0B(4)
	res := applyChecked(t, p,
		rd(0, 1), // first ref
		rd(1, 1), // clean in cache 0
		rd(2, 1), // clean in 0,1
		wr(0, 1), // write hit on clean block: invalidate 1,2
		rd(1, 1), // miss on dirty block: flush from 0
	)
	expectTypes(t, res,
		event.RdMissFirst, event.RdMissClean, event.RdMissClean,
		event.WrHitClean, event.RdMissDirty)

	wh := res[3]
	if wh.Holders != 2 {
		t.Errorf("write hit saw %d holders, want 2", wh.Holders)
	}
	if !wh.Broadcast || wh.Inval != 0 {
		t.Errorf("Dir0B must broadcast invalidations: %+v", wh)
	}
	if !wh.DirCheck {
		t.Error("Dir0B write hit to clean block must query the directory")
	}
	rm := res[4]
	if !rm.WriteBack || !rm.CacheSupply {
		t.Errorf("dirty-miss must flush and snarf: %+v", rm)
	}
}

func TestDir0BCleanExactlyOneAvoidsBroadcast(t *testing.T) {
	p := NewDir0B(4)
	res := applyChecked(t, p,
		rd(0, 1), // sole clean holder
		wr(0, 1), // clean-in-exactly-one: no broadcast needed
	)
	wh := res[1]
	if wh.Type != event.WrHitClean {
		t.Fatalf("classified %v", wh.Type)
	}
	if wh.Broadcast || wh.Inval != 0 {
		t.Errorf("sole-holder write should not invalidate: %+v", wh)
	}
	if !wh.DirCheck {
		t.Error("directory must still be consulted to set the dirty state")
	}
}

func TestDir0BWriteMissDirtyBroadcasts(t *testing.T) {
	p := NewDir0B(2)
	res := applyChecked(t, p,
		wr(0, 1), // first ref, dirty in 0
		wr(1, 1), // write miss, dirty elsewhere
	)
	expectTypes(t, res, event.WrMissFirst, event.WrMissDirty)
	wm := res[1]
	if !wm.Broadcast || !wm.WriteBack {
		t.Errorf("Dir0B dirty write miss must broadcast the flush: %+v", wm)
	}
}

func TestDirNNBSequentialInvalidation(t *testing.T) {
	p := NewDirNNB(4)
	res := applyChecked(t, p,
		rd(0, 1), rd(1, 1), rd(2, 1), rd(3, 1),
		wr(3, 1), // invalidate 0,1,2 with directed messages
	)
	wh := res[4]
	if wh.Type != event.WrHitClean || wh.Inval != 3 || wh.Broadcast {
		t.Errorf("DirNNB should send 3 directed invals: %+v", wh)
	}
	// Dirty write miss is directed too.
	res = applyChecked(t, NewDirNNB(2), wr(0, 2), wr(1, 2))
	if res[1].Inval != 1 || res[1].Broadcast {
		t.Errorf("DirNNB dirty miss: %+v", res[1])
	}
}

func TestDirNNBNeverBroadcasts(t *testing.T) {
	p := NewDirNNB(4)
	for _, res := range apply(t, p, randomRefs(7, 4, 32, 20000)...) {
		if res.Broadcast {
			t.Fatal("DirNNB broadcast an invalidation")
		}
	}
}

func TestDiriBOverflowSetsBroadcastBit(t *testing.T) {
	p := NewDiriB(4, 1) // Dir1B
	res := applyChecked(t, p,
		rd(0, 1), // pointer -> 0
		wr(0, 1), // clean hit by the sole holder; entry becomes dirty {0}
		rd(1, 1), // flush, two holders {0,1}: pointer full -> bcast bit
		wr(1, 1), // must broadcast
	)
	expectTypes(t, res, event.RdMissFirst, event.WrHitClean, event.RdMissDirty, event.WrHitClean)
	wh := res[3]
	if !wh.Broadcast || wh.Inval != 0 {
		t.Errorf("Dir1B with overflowed pointer must broadcast: %+v", wh)
	}
	// After the write the entry is exclusive again: one more reader then
	// a write by the same reader needs no broadcast... but two readers do.
	res = applyChecked(t, NewDiriB(4, 2),
		rd(0, 2), rd(1, 2), wr(0, 2),
	)
	wh = res[2]
	if wh.Broadcast || wh.Inval != 1 {
		t.Errorf("Dir2B with room should send one directed inval: %+v", wh)
	}
}

func TestDiriBNameAndConstruction(t *testing.T) {
	if got := NewDiriB(8, 3).Name(); got != "Dir3B" {
		t.Errorf("name = %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("NewDiriB with i=0 should panic")
		}
	}()
	NewDiriB(4, 0)
}

func TestDiriNBLimitsCopies(t *testing.T) {
	p := NewDiriNB(4, 2)
	res := applyChecked(t, p,
		rd(0, 1), rd(1, 1),
		rd(2, 1), // third copy: oldest (cache 0) forcibly invalidated
	)
	third := res[2]
	if third.ForcedInval != 1 {
		t.Errorf("expected a forced invalidation: %+v", third)
	}
	// Cache 0 lost its copy, so its next read misses.
	res = apply(t, p, rd(0, 1))
	if res[0].Type != event.RdMissClean {
		t.Errorf("evicted holder should miss: %v", res[0].Type)
	}
}

func TestDiriNBHolderLimitInvariant(t *testing.T) {
	p := NewDiriNB(8, 3).(*engine)
	apply(t, p, randomRefs(11, 8, 24, 30000)...)
	err := p.blocks.Each(func(b trace.Block, bl *block) error {
		if n := bl.holders.Count(); n > 3 {
			return fmt.Errorf("block %#x has %d holders, limit 3", b, n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDiriNBFullPointerEqualsFullMap(t *testing.T) {
	// With i >= ncpu the DiriNB constructor degrades to the full map.
	p := NewDiriNB(4, 4)
	refs := randomRefs(13, 4, 16, 10000)
	full := NewDirNNB(4)
	a := countTypes(apply(t, p, refs...))
	b := countTypes(apply(t, full, refs...))
	if a != b {
		t.Error("Dir4NB at 4 CPUs should classify like DirNNB")
	}
}

func TestWTIWritesGoThrough(t *testing.T) {
	refs := []trace.Ref{
		rd(0, 1),
		wr(0, 1), // write-through, sole holder
		rd(1, 1), // memory is current: plain fill, no write-back
		wr(1, 1), // write hit; the write-through invalidates 0 by snooping
		rd(0, 1), // re-fetch after snoop invalidation
		wr(0, 2), // first touch of a fresh block
		wr(1, 2), // write miss on a block exclusive elsewhere
	}
	res := applyChecked(t, NewWTI(2), refs...)
	expectTypes(t, res,
		event.RdMissFirst, event.WrHitClean, event.RdMissDirty,
		event.WrHitClean, event.RdMissDirty,
		event.WrMissFirst, event.WrMissDirty)
	for i, r := range res {
		if r.WriteBack {
			t.Errorf("ref %d: WTI must never write back", i)
		}
		if refs[i].Kind == trace.Write && !r.Update {
			t.Errorf("ref %d: WTI write did not go to memory", i)
		}
		if r.DirCheck {
			t.Errorf("ref %d: WTI has no directory", i)
		}
	}
}

func TestWTIMatchesDir0BEventCounts(t *testing.T) {
	// The paper: same state-change model, identical event frequencies.
	refs := randomRefs(17, 4, 40, 50000)
	wti := countTypes(apply(t, NewWTI(4), refs...))
	d0b := countTypes(apply(t, NewDir0B(4), refs...))
	if wti != d0b {
		t.Errorf("WTI and Dir0B event counts differ:\nWTI %v\nDir0B %v", wti, d0b)
	}
}

func TestMRSWInstrIgnored(t *testing.T) {
	p := NewDir0B(2)
	res := applyChecked(t, p, in(0, 1), in(1, 1), rd(0, 1))
	expectTypes(t, res, event.Instr, event.Instr, event.RdMissFirst)
}

func TestMRSWWriteAfterReadIsHitClean(t *testing.T) {
	// The read-modify-write pattern the paper highlights: the write after
	// a read miss is a hit on a clean block, not a write miss.
	p := NewDir0B(2)
	res := applyChecked(t, p, rd(0, 5), wr(0, 5), wr(0, 5))
	expectTypes(t, res, event.RdMissFirst, event.WrHitClean, event.WrHitOwn)
}

func TestMRSWRejectsBadInput(t *testing.T) {
	p := NewDir0B(2)
	for _, fn := range []func(){
		func() { p.Access(rd(5, 1)) },       // CPU out of range
		func() { p.Access(trRefBadKind()) }, // invalid kind
		func() { checkCPUs(0) },             // bad constructor arg
		func() { checkCPUs(MaxCPUs + 1) },   // too many CPUs
		func() { NewDiriNB(4, 0) },          // no pointers
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func trRefBadKind() trace.Ref {
	r := rd(0, 1)
	r.Kind = 9
	return r
}
