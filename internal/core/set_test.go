package core

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestSetBasics(t *testing.T) {
	var s Set
	if !s.Empty() || s.Count() != 0 {
		t.Fatal("zero set should be empty")
	}
	s = s.Add(3).Add(7).Add(3)
	if s.Count() != 2 || !s.Has(3) || !s.Has(7) || s.Has(0) {
		t.Fatalf("set contents wrong: %b", s)
	}
	if s.Only(3) {
		t.Error("Only should fail with two members")
	}
	s = s.Del(7)
	if !s.Only(3) || s.Count() != 1 {
		t.Errorf("after Del: %b", s)
	}
	if s.First() != 3 {
		t.Errorf("First = %d", s.First())
	}
	s = s.Del(3)
	if !s.Empty() {
		t.Error("set should be empty again")
	}
	// Deleting an absent member is a no-op.
	if s.Del(5) != s {
		t.Error("Del on absent member changed the set")
	}
}

// TestSetMembers enumerates a set as the engines read it, lowest member
// first: First, then Del.
func TestSetMembers(t *testing.T) {
	s := Set(0).Add(0).Add(5).Add(63)
	var got []uint8
	for ; !s.Empty(); s = s.Del(s.First()) {
		got = append(got, s.First())
	}
	if want := []uint8{0, 5, 63}; !slices.Equal(got, want) {
		t.Fatalf("members = %v, want %v", got, want)
	}
}

func TestSetFirstPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("First on empty set should panic")
		}
	}()
	Set(0).First()
}

func TestSetProperties(t *testing.T) {
	f := func(adds, dels []uint8) bool {
		var s Set
		ref := map[uint8]bool{}
		for _, a := range adds {
			a %= MaxCPUs
			s = s.Add(a)
			ref[a] = true
		}
		for _, d := range dels {
			d %= MaxCPUs
			s = s.Del(d)
			delete(ref, d)
		}
		if s.Count() != len(ref) {
			return false
		}
		for m := range ref {
			if !s.Has(m) {
				return false
			}
		}
		return s.Count() == len(ref) && s.Empty() == (len(ref) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
