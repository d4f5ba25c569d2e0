package core

import (
	"testing"

	"dirsim/internal/cache"
	"dirsim/internal/event"
)

func finiteCfg(blocks int) cache.Config {
	return cache.Config{SizeBytes: blocks * 16, Assoc: 2}
}

func newFinite(t *testing.T, ncpu, blocks int) Protocol {
	t.Helper()
	p, err := NewFiniteDirNNB(ncpu, finiteCfg(blocks))
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
	if _, err := NewFiniteDirNNB(4, cache.Config{SizeBytes: 0, Assoc: 1}); err == nil {
		t.Error("bad cache config accepted")
	}
}

func TestFiniteDirEvictionWriteBack(t *testing.T) {
	// A 2-block, 1-set cache: the third distinct block evicts.
	p, err := NewFiniteDirNNB(2, cache.Config{SizeBytes: 32, Assoc: 2})
	if err != nil {
		t.Fatal(err)
	}
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
	p, err := NewFiniteDirNNB(2, cache.Config{SizeBytes: 32, Assoc: 2})
	if err != nil {
		t.Fatal(err)
	}
	fd := p.(interface{ Counters() (int64, int64, int64) })
	applyChecked(t, p,
		rd(0, 1), // trace-first: none of the three
		rd(1, 1), // cold for cpu 1
		wr(1, 1), // invalidates cpu 0
		rd(0, 1), // coherence miss
		rd(0, 2), // trace-first
		rd(0, 3), // trace-first; evicts block 1 or 2 on cpu 0
		rd(0, 1), // capacity or coherence depending on victim...
	)
	cold, coh, capm := fd.Counters()
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
	fd := big.(interface{ Counters() (int64, int64, int64) })
	_, _, capm := fd.Counters()
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
		_, coh, _ := p.(interface{ Counters() (int64, int64, int64) }).Counters()
		return coh
	}
	big, small := cohAt(4096), cohAt(32)
	if small > big {
		t.Errorf("coherence misses grew as the cache shrank: %d -> %d", big, small)
	}
}
