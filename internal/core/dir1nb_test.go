package core

import (
	"reflect"
	"testing"

	"dirsim/internal/event"
	"dirsim/internal/trace"
	"dirsim/internal/workload"
)

func TestDir1NBSingleCopySemantics(t *testing.T) {
	p := NewDir1NB(4)
	res := applyChecked(t, p,
		rd(0, 1), // first ref
		rd(0, 1), // hit
		rd(1, 1), // steal from 0 (clean)
		rd(0, 1), // steal back
		wr(0, 1), // write hit, exclusive by construction: free
		rd(1, 1), // steal dirty block: write-back
		wr(2, 1), // write miss, steal clean block from 1
	)
	expectTypes(t, res,
		event.RdMissFirst, event.RdHit, event.RdMissClean, event.RdMissClean,
		event.WrHitOwn, event.RdMissDirty, event.WrMissClean)

	steal := res[2]
	if steal.Inval != 1 || steal.Holders != 1 {
		t.Errorf("clean steal: %+v", steal)
	}
	dirtySteal := res[5]
	if !dirtySteal.WriteBack || !dirtySteal.CacheSupply || dirtySteal.Inval != 1 {
		t.Errorf("dirty steal: %+v", dirtySteal)
	}
	// Write hits never touch the bus or the directory in Dir1NB.
	whit := res[4]
	if whit.Inval != 0 || whit.DirCheck || whit.Update || whit.Broadcast {
		t.Errorf("Dir1NB write hit should be free: %+v", whit)
	}
}

func TestDir1NBWriteMissOnUncached(t *testing.T) {
	p := NewDir1NB(2)
	res := applyChecked(t, p, wr(0, 3), rd(0, 3), wr(1, 3), wr(1, 3))
	expectTypes(t, res,
		event.WrMissFirst, event.RdHit, event.WrMissDirty, event.WrHitOwn)
}

func TestDir1NBNeverHasTwoHolders(t *testing.T) {
	p := NewDir1NB(8)
	apply(t, p, randomRefs(23, 8, 32, 30000)...)
	// Count how many blocks each cache "holds" by replaying reads: the
	// engine's own structure cannot represent two holders, so instead we
	// assert the classifications stay consistent: a hit by one CPU
	// immediately after a read by another is impossible.
	res1 := p.Access(rd(0, 5))
	res2 := p.Access(rd(1, 5))
	if res2.Type == event.RdHit && res1.Type != event.RdHit {
		t.Error("two CPUs cannot both hit the same block in Dir1NB")
	}
}

func TestDir1NBSpinBouncing(t *testing.T) {
	// Two CPUs alternately reading one block: every access after the
	// first is a miss — the lock-bouncing pathology of Section 5.2.
	p := NewDir1NB(2)
	res := applyChecked(t, p,
		rd(0, 9), rd(1, 9), rd(0, 9), rd(1, 9), rd(0, 9))
	misses := 0
	for _, r := range res {
		if r.Type.IsMiss() {
			misses++
		}
	}
	if misses != 5 {
		t.Errorf("all 5 alternating reads should miss, got %d", misses)
	}
	// The same pattern under Dir0B misses only once.
	res = applyChecked(t, NewDir0B(2),
		rd(0, 9), rd(1, 9), rd(0, 9), rd(1, 9), rd(0, 9))
	misses = 0
	for _, r := range res {
		if r.Type.IsMiss() {
			misses++
		}
	}
	if misses != 2 {
		t.Errorf("Dir0B should miss twice (one per CPU), got %d", misses)
	}
}

func TestDir1NBInstr(t *testing.T) {
	res := applyChecked(t, NewDir1NB(2), in(0, 1), in(1, 1))
	expectTypes(t, res, event.Instr, event.Instr)
}

// expectPanic fails t unless f panics.
func expectPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

// TestDir1NBPanicsOnBadInput mirrors the spec engine's contract on the
// per-reference path.
func TestDir1NBPanicsOnBadInput(t *testing.T) {
	p := NewDir1NB(2)
	expectPanic(t, "cpu out of range", func() { p.Access(rd(3, 0)) })
	expectPanic(t, "bad kind", func() {
		p.Access(trace.Ref{Addr: 0, CPU: 0, Kind: trace.Kind(9)})
	})
}

// TestDir1NBBatchPanicsOnBadInput holds the batched loop to the same
// contract as the per-reference path.
func TestDir1NBBatchPanicsOnBadInput(t *testing.T) {
	expectPanic(t, "cpu out of range (batch)", func() {
		AccessBatch(NewDir1NB(2), []trace.Ref{rd(3, 0)}, nil)
	})
	expectPanic(t, "bad kind (batch)", func() {
		AccessBatch(NewDir1NB(2), []trace.Ref{{Addr: 0, CPU: 0, Kind: trace.Kind(9)}}, nil)
	})
}

// TestDir1NBMatchesSpec cross-validates the Dir1NB engine against the
// method-dispatch specification: identical event results, reference by
// reference, over heavy random streams at several machine sizes.
func TestDir1NBMatchesSpec(t *testing.T) {
	for _, cpus := range []int{1, 2, 4, 8, 64} {
		refs := randomRefs(int64(100+cpus), cpus, 512, 60000)
		p, spec := NewDir1NB(cpus), NewDir1NBSpec(cpus)
		if _, ok := p.(Batcher); !ok {
			t.Fatal("the Dir1NB engine should implement Batcher")
		}
		for i, r := range refs {
			got, want := p.Access(r), spec.Access(r)
			if got != want {
				t.Fatalf("cpus=%d ref %d %v: engine %+v, spec %+v", cpus, i, r, got, want)
			}
		}
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("cpus=%d: engine invariants: %v", cpus, err)
		}
	}
}

// TestDir1NBBatchMatchesSpec drives the engine through its batched loop
// on the standard workloads and compares against the specification
// engine run per reference.
func TestDir1NBBatchMatchesSpec(t *testing.T) {
	for _, cfg := range workload.StandardConfigs(4, 20000) {
		tr := workload.MustGenerate(cfg)
		p, spec := NewDir1NB(tr.CPUs), NewDir1NBSpec(tr.CPUs)
		got := AccessBatch(p, tr.Refs, nil)
		want := make([]event.Result, 0, len(tr.Refs))
		for _, r := range tr.Refs {
			want = append(want, spec.Access(r))
		}
		if !reflect.DeepEqual(got, want) {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s ref %d: engine %+v, spec %+v", cfg.Name, i, got[i], want[i])
				}
			}
			t.Fatalf("%s: batch results differ", cfg.Name)
		}
	}
}

// TestDir1NBCheckedMatchesSpec holds the two engines identical with a
// value-coherence checker attached — the checked path goes through
// per-reference access, and both checkers must stay clean.
func TestDir1NBCheckedMatchesSpec(t *testing.T) {
	refs := randomRefs(7, 8, 64, 30000)
	p, spec := NewDir1NB(8), NewDir1NBSpec(8)
	if !Attach(p, NewChecker()) || !Attach(spec, NewChecker()) {
		t.Fatal("both engines should accept a checker")
	}
	got := AccessBatch(p, refs, nil)
	want := AccessBatch(spec, refs, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("checked results differ")
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("engine invariants: %v", err)
	}
	if err := spec.CheckInvariants(); err != nil {
		t.Fatalf("spec invariants: %v", err)
	}
}
