package core

import (
	"fmt"
	"testing"

	"dirsim/internal/event"
)

// newFinite builds the finite-cache engine by name: 2-way caches of the
// given number of 16-byte blocks.
func newFinite(t *testing.T, ncpu, blocks int) Protocol {
	t.Helper()
	p, err := NewByName(fmt.Sprintf("FiniteDirNNB:%db2w", blocks*16), ncpu)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFiniteDirBasicCoherence(t *testing.T) {
	p := newFinite(t, 4, 64)
	res := applyChecked(t, p,
		rd(0, 1), rd(1, 1), wr(0, 1), rd(1, 1),
	)
	expectTypes(t, res,
		event.RdMissFirst, event.RdMissClean, event.WrHitClean, event.RdMissDirty)
	if res[2].Inval != 1 {
		t.Errorf("directed invalidation expected: %+v", res[2])
	}
}

func TestFiniteDirRejectsBadConfig(t *testing.T) {
	for _, name := range []string{
		"FiniteDirNNB:0b1w",    // no capacity
		"FiniteDirNNB:8m2w",    // past MaxFiniteCacheBytes
		"FiniteDirNNB:64k0w",   // no ways
		"FiniteDirNNB:64k128w", // three-digit ways
		"FiniteDirNNB:48k2w",   // size not a power of two
		"FiniteDirNNB:64k3w",   // ways not a power of two
		"FiniteDirNNB:16b2w",   // smaller than two blocks
		"FiniteDirNNB:64k2wx",  // trailing garbage
		"FiniteDirNNB:+64k2w",  // a sign is not a digit
		"FiniteDirNNB:64K",     // no ways
		"FiniteDirNNB",         // no geometry
	} {
		if p, err := NewByName(name, 4); err == nil {
			t.Errorf("NewByName(%q) = %s, want an error", name, p.Name())
		}
	}
}

// TestFiniteDirNameIsCanonical: a finite-cache name is matched
// case-insensitively in any unit that divides its size, and the engine's
// Name is the one spelling (largest unit) that builds the same engine.
func TestFiniteDirNameIsCanonical(t *testing.T) {
	for in, want := range map[string]string{
		"FiniteDirNNB:512b2w":     "FiniteDirNNB:512b2w",
		"finitedirnnb:1024B2W":    "FiniteDirNNB:1k2w",
		"FiniteDirNNB:64k2w":      "FiniteDirNNB:64k2w",
		" FiniteDirNNB:0064k2w ":  "FiniteDirNNB:64k2w",
		"FiniteDirNNB:4096k2w":    "FiniteDirNNB:4m2w",
		"FiniteDirNNB:4194304b1w": "FiniteDirNNB:4m1w",
		"FiniteDirNNB:32b2w":      "FiniteDirNNB:32b2w",
		"FiniteDirNNB:4m64w":      "FiniteDirNNB:4m64w",
	} {
		p, err := NewByName(in, MaxCPUs)
		if err != nil {
			t.Errorf("NewByName(%q): %v", in, err)
			continue
		}
		if p.Name() != want {
			t.Errorf("NewByName(%q).Name() = %q, want %q", in, p.Name(), want)
		}
		q, err := NewByName(p.Name(), MaxCPUs)
		if err != nil || q.Name() != p.Name() {
			t.Errorf("NewByName(%q) = %v, %v; want the same name back", p.Name(), q, err)
		}
	}
}

func TestFiniteDirEvictionWriteBack(t *testing.T) {
	// A 2-block, 1-set cache: the third distinct block evicts.
	p := newFinite(t, 2, 2)
	res := applyChecked(t, p,
		wr(0, 1), // dirty
		rd(0, 2),
		rd(0, 3), // evicts dirty block 1: replacement write-back
	)
	if !res[2].EvictWB {
		t.Errorf("dirty eviction should flush: %+v", res[2])
	}
	// Block 2 (clean) is the next victim.
	res = applyChecked(t, p, rd(0, 4))
	if res[0].EvictWB || res[0].Control != 1 {
		t.Errorf("clean eviction should notify the directory: %+v", res[0])
	}
}

func TestFiniteDirMissCauseAccounting(t *testing.T) {
	p := newFinite(t, 2, 2)
	applyChecked(t, p,
		rd(0, 1), // trace-first: none of the three
		rd(1, 1), // cold for cpu 1
		wr(1, 1), // invalidates cpu 0
		rd(0, 1), // coherence miss
		rd(0, 2), // trace-first
		rd(0, 3), // trace-first; evicts block 1 or 2 on cpu 0
		rd(0, 1), // capacity or coherence depending on victim...
	)
	cold, coh, capm, finite := MissCauses(p)
	if !finite {
		t.Error("MissCauses does not report a finite cache as finite")
	}
	if cold != 1 {
		t.Errorf("cold = %d, want 1", cold)
	}
	if coh < 1 {
		t.Errorf("coherence = %d, want >= 1", coh)
	}
	if coh+capm != 2 {
		t.Errorf("coh %d + cap %d should account for both re-misses", coh, capm)
	}
}

func TestFiniteDirMatchesInfiniteWhenHuge(t *testing.T) {
	// With a cache far larger than the footprint nothing is ever
	// replaced, so the finite engine must return the infinite DirNNB's
	// result, every field of it, for every reference.
	refs := randomRefs(61, 4, 32, 20000)
	big := newFinite(t, 4, 4096)
	inf := NewDirNNB(4)
	a, b := apply(t, big, refs...), apply(t, inf, refs...)
	for i := range refs {
		if a[i] != b[i] {
			t.Fatalf("ref %d (%+v): finite %+v, DirNNB %+v", i, refs[i], a[i], b[i])
		}
	}
	_, _, capm, _ := MissCauses(big)
	if capm != 0 {
		t.Errorf("no capacity misses expected, got %d", capm)
	}
}

func TestFiniteDirInvariantsUnderLoad(t *testing.T) {
	// A small cache under a heavy random workload: the directory map and
	// residency must agree at all times, with coherence intact.
	p := newFinite(t, 4, 16)
	refs := randomRefs(67, 4, 64, 30000)
	if !Attach(p, NewChecker()) {
		t.Fatal("no checker support")
	}
	for i, r := range refs {
		p.Access(r)
		if i%2000 == 0 {
			if err := p.CheckInvariants(); err != nil {
				t.Fatalf("after %d refs: %v", i, err)
			}
		}
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFiniteDirCoherenceMissesShrinkWithCache(t *testing.T) {
	// Footnote 2 as a property: smaller cache => fewer coherence misses.
	refs := randomRefs(71, 4, 256, 60000)
	cohAt := func(blocks int) int64 {
		p := newFinite(t, 4, blocks)
		apply(t, p, refs...)
		_, coh, _, _ := MissCauses(p)
		return coh
	}
	big, small := cohAt(4096), cohAt(32)
	if small > big {
		t.Errorf("coherence misses grew as the cache shrank: %d -> %d", big, small)
	}
}
