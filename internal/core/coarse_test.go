package core

import (
	"testing"
	"testing/quick"

	"dirsim/internal/event"
	"dirsim/internal/trace"
	"dirsim/internal/workload"
)

// overshoot runs refs through DirCV, checked, and through DirNNB on ncpu
// CPUs. The two change state alike, so the directed invalidations DirCV
// sends are DirNNB's (useful) plus those to caches holding no copy
// (wasted).
func overshoot(t *testing.T, ncpu int, refs ...trace.Ref) (cv []event.Result, wasted, useful int64) {
	t.Helper()
	cv = applyChecked(t, NewCoarseVector(ncpu), refs...)
	for i, full := range apply(t, NewDirNNB(ncpu), refs...) {
		useful += int64(full.Inval)
		wasted += int64(cv[i].Inval - full.Inval)
	}
	return cv, wasted, useful
}

func TestCoarseVectorBasics(t *testing.T) {
	results, wasted, _ := overshoot(t, 8,
		rd(0, 1), // first
		rd(1, 1), // clean share: holders {0,1}, one "both" digit
		rd(0, 1), // hit
		wr(1, 1), // invalidate the named set minus the writer
		rd(0, 1), // dirty miss: flush from 1
		in(0, 9), // instruction: ignored
	)
	expectTypes(t, results, event.RdMissFirst, event.RdMissClean, event.RdHit,
		event.WrHitClean, event.RdMissDirty, event.Instr)
	// {0,1} is coded exactly; the write invalidates one cache, none wasted.
	if results[3].Inval != 1 {
		t.Errorf("write sent %d invals, want 1", results[3].Inval)
	}
	if wasted != 0 {
		t.Errorf("wasted %d invals on an exact code", wasted)
	}
}

// TestCoarseVectorZeroState checks the invariants accept never-referenced
// entries: an untouched engine, and the 127 zero slots beside one block.
func TestCoarseVectorZeroState(t *testing.T) {
	p := NewCoarseVector(8)
	if err := p.CheckInvariants(); err != nil {
		t.Errorf("untouched: %v", err)
	}
	applyChecked(t, p, wr(3, 5))
	if err := p.CheckInvariants(); err != nil {
		t.Errorf("one block touched: %v", err)
	}
}

// TestCoarseVectorOvershootEmpty: references that never share a block
// leave DirCV nothing to invalidate, so it sends no message at all.
func TestCoarseVectorOvershootEmpty(t *testing.T) {
	_, wasted, useful := overshoot(t, 4, rd(0, 1), wr(0, 1), rd(1, 2), wr(2, 3), wr(2, 3))
	if wasted != 0 || useful != 0 {
		t.Errorf("unshared references counted wasted=%d useful=%d", wasted, useful)
	}
}

func TestCoarseVectorOvershoot(t *testing.T) {
	// Holders {0,3}: 000 and 011 differ in two digits, so the code names
	// {0,1,2,3}.
	results, wasted, useful := overshoot(t, 8, rd(0, 2), rd(3, 2), wr(0, 2))
	if res := results[2]; res.Inval != 3 {
		t.Errorf("superset invalidation sent %d messages, want 3 (caches 1,2,3)", res.Inval)
	}
	if wasted != 2 || useful != 1 {
		t.Errorf("wasted=%d useful=%d, want 2/1", wasted, useful)
	}
}

// TestCoarseVectorMatchesFullMapEvents: the code changes only where
// invalidations are delivered, never the state evolution, so DirCV
// classifies every reference as DirNNB does and sends at least DirNNB's
// messages on every one; on a shared workload some go to caches holding
// no copy.
func TestCoarseVectorMatchesFullMapEvents(t *testing.T) {
	refs := workload.THOR(8, 60_000).Refs
	cv, wasted, _ := overshoot(t, 8, refs...)
	full := apply(t, NewDirNNB(8), refs...)
	for i := range refs {
		if cv[i].Type != full[i].Type || cv[i].Inval < full[i].Inval {
			t.Fatalf("ref %d %v: DirCV %+v, DirNNB %+v", i, refs[i], cv[i], full[i])
		}
	}
	if wasted == 0 {
		t.Error("the coarse code wasted no message on THOR")
	}
}

func TestCoarseVectorCoherentOnContention(t *testing.T) {
	applyChecked(t, NewCoarseVector(8), workload.SpinContention(8, 300, 6).Refs...)
}

func TestCoarseVectorPanicsOnBadInput(t *testing.T) {
	p := NewCoarseVector(4)
	for _, fn := range []func(){
		func() { p.Access(rd(7, 0)) },
		func() { NewCoarseVector(0) },
		func() { NewCoarseVector(MaxCPUs + 1) },
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

// setOf builds a holder set.
func setOf(cpus ...uint8) Set {
	var s Set
	for _, c := range cpus {
		s = s.Add(c)
	}
	return s
}

// named checks the set coarseNamed derives for holders on ncpu CPUs.
func named(t *testing.T, holders Set, ncpu int, want Set) {
	t.Helper()
	if got := coarseNamed(holders, ncpu); got != want {
		t.Errorf("coarseNamed(%b, %d) = %b, want %b", holders, ncpu, got, want)
	}
}

// TestEmptyCode: a never-referenced entry has no holder and names no cache.
func TestEmptyCode(t *testing.T) {
	named(t, 0, 16, 0)
	named(t, 0, 64, 0)
}

func TestCodeOfSingle(t *testing.T) {
	for c := uint8(0); c < 16; c++ {
		named(t, setOf(c), 16, setOf(c))
	}
	named(t, setOf(63), 64, setOf(63)) // at the top of the widest machine
}

func TestCodeAddCoversAll(t *testing.T) {
	// 001 and 010 differ in two digits, so the code names 0..3.
	named(t, setOf(1, 2), 8, setOf(0, 1, 2, 3))
}

func TestCodeAddOnEmpty(t *testing.T) {
	named(t, setOf(5), 16, setOf(5))
}

func TestCodeCountNonPowerOfTwoMachine(t *testing.T) {
	// 000, 100, 101: two "both" digits, naming {0,1,4,5}, all below 6.
	named(t, setOf(0, 4, 5), 6, setOf(0, 1, 4, 5))
	// 011, 101 name 7 too, which 6 CPUs lack.
	named(t, setOf(3, 5), 6, setOf(1, 3, 5))
}

func TestCoarseNamed(t *testing.T) {
	named(t, setOf(0, 63), 64, ^Set(0))            // every digit differs
	named(t, setOf(2, 3, 6), 8, setOf(2, 3, 6, 7)) // 010, 011, 110
	named(t, setOf(2, 3, 6), 7, setOf(2, 3, 6))    // ... and 7 does not exist
}

// TestCoarseNamedSuperset holds coarseNamed to the code the Section 6
// entry builds one holder at a time: each new holder turns every digit in
// which it differs from the code's fixed digits into "both". The code
// names every holder and nothing at or above the machine size; on a
// power-of-two machine it names a power-of-two number of caches.
func TestCoarseNamedSuperset(t *testing.T) {
	f := func(members []uint8, size uint8) bool {
		n := 2 + int(size)%63 // machine sizes 2..64
		var holders Set
		var value, wild uint8
		for i, m := range members {
			m %= uint8(n)
			holders = holders.Add(m)
			if i == 0 {
				value = m
			}
			wild |= (value ^ m) &^ wild
			value &^= wild
		}
		var want Set
		for c := 0; c < n && len(members) > 0; c++ {
			if (uint8(c)^value)&^wild == 0 {
				want = want.Add(uint8(c))
			}
		}
		got := coarseNamed(holders, n)
		k := got.Count()
		return got == want && got&holders == holders && got>>n == 0 &&
			(n&(n-1) != 0 || k&(k-1) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
