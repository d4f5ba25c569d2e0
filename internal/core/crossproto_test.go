package core

import (
	"testing"
	"testing/quick"

	"dirsim/internal/event"
	"dirsim/internal/trace"
)

// Cross-protocol properties: relationships between the schemes that must
// hold on any trace, checked on randomized inputs.

func allSchemes(ncpu int) []Protocol {
	return []Protocol{
		NewDir1NB(ncpu),
		NewDir0B(ncpu),
		NewDirNNB(ncpu),
		NewDiriNB(ncpu, 2),
		NewDiriB(ncpu, 1),
		NewDiriB(ncpu, 2),
		NewWTI(ncpu),
		NewDragon(ncpu),
	}
}

func TestAllSchemesValueCoherent(t *testing.T) {
	// Every protocol must keep every read coherent on a heavily shared
	// random workload — the central correctness property.
	refs := randomRefs(101, 6, 24, 60000)
	for _, p := range allSchemes(6) {
		applyChecked(t, p, refs...)
	}
}

func TestValueCoherenceQuick(t *testing.T) {
	f := func(seed int64) bool {
		refs := randomRefs(seed, 4, 10, 2000)
		for _, p := range allSchemes(4) {
			if !Attach(p, NewChecker()) {
				return false
			}
			for _, r := range refs {
				p.Access(r)
			}
			if p.CheckInvariants() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestFirstRefCountsAgreeAcrossSchemes(t *testing.T) {
	// First-reference misses are a property of the trace, not of the
	// scheme: all engines must count exactly the same number.
	refs := randomRefs(55, 4, 40, 30000)
	var wantRd, wantWr int64 = -1, -1
	for _, p := range allSchemes(4) {
		c := countTypes(apply(t, p, refs...))
		if wantRd == -1 {
			wantRd, wantWr = c.N[event.RdMissFirst], c.N[event.WrMissFirst]
			continue
		}
		if c.N[event.RdMissFirst] != wantRd || c.N[event.WrMissFirst] != wantWr {
			t.Errorf("%s first-ref counts %d/%d, want %d/%d",
				p.Name(), c.N[event.RdMissFirst], c.N[event.WrMissFirst], wantRd, wantWr)
		}
	}
}

func TestMRSWFamilySameEventCounts(t *testing.T) {
	// Dir0B, DirNNB, DiriB and WTI share the state-change model, so
	// their event counts must be identical on a long trace (FuzzMRSWFamily
	// holds every variant's whole result, reference by reference).
	refs := randomRefs(77, 4, 30, 40000)
	family := []Protocol{NewDir0B(4), NewDirNNB(4), NewDiriB(4, 1), NewDiriB(4, 3), NewWTI(4)}
	var want event.Counts
	for i, p := range family {
		c := countTypes(apply(t, p, refs...))
		if i == 0 {
			want = c
			continue
		}
		if c != want {
			t.Errorf("%s diverges from Dir0B event counts", p.Name())
		}
	}
}

func TestDragonHasFewestMisses(t *testing.T) {
	// An update protocol never invalidates, so its total data miss count
	// is a lower bound for every invalidation protocol.
	refs := randomRefs(91, 4, 30, 40000)
	dragon := countTypes(apply(t, NewDragon(4), refs...))
	dMiss := dragon.ReadMisses() + dragon.WriteMisses()
	for _, p := range []Protocol{NewDir1NB(4), NewDir0B(4), NewDirNNB(4), NewWTI(4), NewDiriNB(4, 2)} {
		c := countTypes(apply(t, p, refs...))
		if m := c.ReadMisses() + c.WriteMisses(); m < dMiss-1e-9 {
			t.Errorf("%s misses %.4f%% < Dragon %.4f%%", p.Name(), m, dMiss)
		}
	}
}

func TestDir1NBHasMostMisses(t *testing.T) {
	// One-copy-at-a-time cannot miss less than the multi-copy schemes.
	refs := randomRefs(93, 4, 30, 40000)
	d1 := countTypes(apply(t, NewDir1NB(4), refs...))
	d1Miss := d1.ReadMisses() + d1.WriteMisses()
	for _, p := range []Protocol{NewDir0B(4), NewDirNNB(4), NewDragon(4)} {
		c := countTypes(apply(t, p, refs...))
		if m := c.ReadMisses() + c.WriteMisses(); m > d1Miss+1e-9 {
			t.Errorf("%s misses %.4f%% > Dir1NB %.4f%%", p.Name(), m, d1Miss)
		}
	}
}

func TestDiriNBMissesDecreaseWithPointers(t *testing.T) {
	refs := randomRefs(95, 8, 20, 40000)
	prev := -1.0
	for _, i := range []int{1, 2, 4, 8} {
		var p Protocol
		if i == 1 {
			p = NewDir1NB(8)
		} else {
			p = NewDiriNB(8, i)
		}
		c := countTypes(apply(t, p, refs...))
		m := c.ReadMisses() + c.WriteMisses()
		if prev >= 0 && m > prev+1e-9 {
			t.Errorf("Dir%dNB misses %.4f%% exceed Dir%dNB", i, m, i/2)
		}
		prev = m
	}
}

func TestDeterminism(t *testing.T) {
	// Same trace, fresh engine: identical result stream.
	refs := randomRefs(99, 4, 16, 5000)
	for _, build := range []func() Protocol{
		func() Protocol { return NewDir0B(4) },
		func() Protocol { return NewDragon(4) },
		func() Protocol { return NewDir1NB(4) },
	} {
		a, b := build(), build()
		for i, r := range refs {
			ra, rb := a.Access(r), b.Access(r)
			if ra != rb {
				t.Fatalf("%s nondeterministic at ref %d: %+v vs %+v", a.Name(), i, ra, rb)
			}
		}
	}
}

func TestReadOnlyTraceCostsNothingAfterFill(t *testing.T) {
	// Once every cache holds a read-only block, no protocol may generate
	// further events beyond hits.
	var refs []trace.Ref
	for round := 0; round < 5; round++ {
		for cpu := uint8(0); cpu < 4; cpu++ {
			refs = append(refs, rd(cpu, 1))
		}
	}
	for _, p := range []Protocol{NewDir0B(4), NewDirNNB(4), NewWTI(4), NewDragon(4), NewDiriB(4, 2)} {
		results := applyChecked(t, p, refs...)
		for i, r := range results[4:] {
			if r.Type != event.RdHit {
				t.Errorf("%s: read %d classified %v after warm-up", p.Name(), i+4, r.Type)
			}
		}
	}
}
