package directory

import (
	"testing"
	"testing/quick"
)

func TestEmptyCode(t *testing.T) {
	k := EmptyCode()
	if k.Covers(0) || k.Covers(63) {
		t.Error("empty code covers a cache")
	}
	if k.Count(16) != 0 {
		t.Errorf("empty count = %d", k.Count(16))
	}
	if got := k.Members(8, nil); len(got) != 0 {
		t.Errorf("empty members = %v", got)
	}
	if k.String() != "<empty>" {
		t.Errorf("String = %q", k.String())
	}
	// The block table relies on it: a never-referenced directory entry is
	// all zeros and must name no cache.
	if k != (Code{}) {
		t.Error("the zero Code is not the empty code")
	}
}

func TestCodeOfSingle(t *testing.T) {
	for c := uint8(0); c < 16; c++ {
		k := CodeOf(c)
		if !k.Covers(c) {
			t.Errorf("CodeOf(%d) does not cover %d", c, c)
		}
		if k.Count(16) != 1 {
			t.Errorf("CodeOf(%d) names %d caches", c, k.Count(16))
		}
	}
}

func TestCodeAddCoversAll(t *testing.T) {
	k := EmptyCode().Add(1).Add(2)
	for _, c := range []uint8{1, 2} {
		if !k.Covers(c) {
			t.Errorf("code misses member %d", c)
		}
	}
	// 1 = 001, 2 = 010: two differing digits, so the code covers 0..3.
	if k.Count(8) != 4 {
		t.Errorf("count = %d, want 4", k.Count(8))
	}
}

func TestCodeAddOnEmpty(t *testing.T) {
	k := EmptyCode().Add(5)
	if !k.Covers(5) || k.Count(16) != 1 {
		t.Error("Add on empty should name exactly the added cache")
	}
}

func TestCodeSupersetProperty(t *testing.T) {
	// The defining property: the code of any member set covers every
	// member, and its size is a power of two bounded by the machine.
	f := func(members []uint8, nExp uint8) bool {
		n := 1 << (1 + nExp%6) // machine sizes 2..64
		k := EmptyCode()
		seen := map[uint8]bool{}
		for _, m := range members {
			m %= uint8(n)
			k = k.Add(m)
			seen[m] = true
		}
		if k.Validate() != nil {
			return false
		}
		for m := range seen {
			if !k.Covers(m) {
				return false
			}
		}
		count := k.Count(n)
		if count < len(seen) || count > n {
			return false
		}
		// Count must agree with Members.
		return count == len(k.Members(n, nil))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCodeCountNonPowerOfTwoMachine(t *testing.T) {
	// With 6 caches, the code for {0,4} wildcards digit 2 covering
	// {0,4}; adding 5 wildcards digit 0 too: {0,1,4,5}, all below 6.
	k := EmptyCode().Add(0).Add(4).Add(5)
	if got := k.Count(6); got != 4 {
		t.Errorf("Count(6) = %d, want 4", got)
	}
	// For {3,7} with n=6: code covers {3,7} but 7 doesn't exist.
	k = EmptyCode().Add(3).Add(7)
	if got := k.Count(6); got != 1 {
		t.Errorf("Count(6) = %d, want 1 (only cache 3 exists)", got)
	}
}

func TestCodeString(t *testing.T) {
	k := EmptyCode().Add(1).Add(3) // 001 and 011: digit 1 wild
	s := k.String()
	if s != "000000*1" {
		t.Errorf("String = %q", s)
	}
}

func TestCodeValidate(t *testing.T) {
	bad := Code{value: 1, wild: 1}
	if bad.Validate() == nil {
		t.Error("overlapping value/wild bits should be invalid")
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 64: 6, 65: 7, 256: 8}
	for n, want := range cases {
		if got := log2Ceil(n); got != want {
			t.Errorf("log2Ceil(%d) = %d, want %d", n, got, want)
		}
	}
}
