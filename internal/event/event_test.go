package event

import (
	"strings"
	"testing"
	"unsafe"
)

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		Instr:       "instr",
		RdHit:       "rd-hit",
		RdMissClean: "rm-blk-cln",
		RdMissDirty: "rm-blk-drty",
		RdMissFirst: "rm-first-ref",
		WrHitClean:  "wh-blk-cln",
		WrHitShared: "wh-distrib",
		WrMissFirst: "wm-first-ref",
	}
	for ty, want := range cases {
		if got := ty.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", ty, got, want)
		}
	}
	if got := Type(200).String(); !strings.Contains(got, "200") {
		t.Errorf("out-of-range String() = %q", got)
	}
}

func TestTypeClassification(t *testing.T) {
	// Every type must be exactly one of instr / read / write, as the
	// Counts rows sum them.
	for ty := Type(0); ty < NumTypes; ty++ {
		var c Counts
		c.Add(ty, 1)
		n := 0
		for _, pct := range []float64{c.Pct(Instr), c.Reads(), c.Writes()} {
			if pct == 100 {
				n++
			} else if pct != 0 {
				t.Errorf("%v counted as %v%% of one row", ty, pct)
			}
		}
		if n != 1 {
			t.Errorf("%v classified into %d categories", ty, n)
		}
	}
}

func TestIsMiss(t *testing.T) {
	misses := []Type{RdMissFirst, RdMissMem, RdMissClean, RdMissDirty,
		WrMissFirst, WrMissMem, WrMissClean, WrMissDirty}
	hits := []Type{Instr, RdHit, WrHitOwn, WrHitClean, WrHitShared, WrHitLocal}
	for _, ty := range misses {
		if !ty.IsMiss() {
			t.Errorf("%v should be a miss", ty)
		}
	}
	for _, ty := range hits {
		if ty.IsMiss() {
			t.Errorf("%v should not be a miss", ty)
		}
	}
}

func TestIsFirstRef(t *testing.T) {
	for ty := Type(0); ty < NumTypes; ty++ {
		want := ty == RdMissFirst || ty == WrMissFirst
		if ty.IsFirstRef() != want {
			t.Errorf("%v.IsFirstRef() = %v", ty, ty.IsFirstRef())
		}
	}
}

// TestResultSize pins Result at 16 bytes: a dense results buffer holds
// one per reference.
func TestResultSize(t *testing.T) {
	if n := unsafe.Sizeof(Result{}); n != 16 {
		t.Errorf("event.Result is %d bytes, want 16", n)
	}
}

// TestClassSumRoundTrips: the result Class.Sum builds for a class has
// that class once it carries the units the class says it has, and is not
// a first reference, so the tariffs price it, with the class's summed
// Units, as they price the class's results; and a result's class says
// miss exactly when its type is one.
func TestClassSumRoundTrips(t *testing.T) {
	for i := range NumClasses {
		c := Class(i)
		r := c.Sum()
		if r.Units() != (Units{}) {
			t.Errorf("Class(%#x).Sum carries units %+v", c, r.Units())
		}
		if c&classUnits != 0 {
			r.Control = 1
		}
		if got := r.Class(); got != c {
			t.Errorf("Class(%#x).Sum has class %#x", c, got)
		}
		if r.Type.IsFirstRef() {
			t.Errorf("Class(%#x).Sum is a first reference", c)
		}
	}
	for ty := Type(0); ty < NumTypes; ty++ {
		r := Result{Type: ty}
		if miss := r.Class()&classMiss != 0; miss != ty.IsMiss() {
			t.Errorf("%v: class says miss %v, IsMiss %v", ty, miss, ty.IsMiss())
		}
	}
}
