package directory

import (
	"slices"
	"strings"
	"testing"
)

func TestFullMapBits(t *testing.T) {
	s := FullMap()
	if s.BitsPerEntry(4) != 5 || s.BitsPerEntry(64) != 65 || s.BitsPerEntry(256) != 257 {
		t.Error("full map must cost n+1 bits")
	}
	if !s.Precise {
		t.Error("full map is precise")
	}
}

func TestTwoBitBits(t *testing.T) {
	s := TwoBit()
	for _, n := range []int{2, 64, 1024} {
		if s.BitsPerEntry(n) != 2 {
			t.Errorf("two-bit entry at %d cpus = %d bits", n, s.BitsPerEntry(n))
		}
	}
	if s.Precise {
		t.Error("two-bit entries cannot name holders")
	}
}

func TestLimitedPointerBits(t *testing.T) {
	// 2 pointers at 64 CPUs: 2*6 + dirty + bcast + count(2 bits) = 16.
	s := LimitedPointer(2, true)
	if got := s.BitsPerEntry(64); got != 16 {
		t.Errorf("ptr(2)+B at 64 cpus = %d bits, want 16", got)
	}
	nb := LimitedPointer(2, false)
	if got := nb.BitsPerEntry(64); got != 15 {
		t.Errorf("ptr(2) at 64 cpus = %d bits, want 15", got)
	}
	if !strings.Contains(s.Name, "+B") || strings.Contains(nb.Name, "+B") {
		t.Errorf("names: %q %q", s.Name, nb.Name)
	}
}

func TestCoarseCodeBits(t *testing.T) {
	s := CoarseCode()
	if got := s.BitsPerEntry(64); got != 13 {
		t.Errorf("coarse at 64 cpus = %d bits, want 2*6+1", got)
	}
	if got := s.BitsPerEntry(256); got != 17 {
		t.Errorf("coarse at 256 cpus = %d bits", got)
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

func TestScalingComparison(t *testing.T) {
	// The Section 6 point: at large n the alternatives beat the full map.
	n := 256
	full := FullMap().BitsPerEntry(n)
	for _, s := range []Spec{TwoBit(), CoarseCode(), LimitedPointer(2, true)} {
		if got := s.BitsPerEntry(n); got >= full {
			t.Errorf("%s (%d bits) should beat full map (%d bits) at %d cpus",
				s.Name, got, full, n)
		}
	}
}

func TestTangBits(t *testing.T) {
	// 4 caches of 1024 lines, 4096 memory blocks, 10-bit tags:
	// 4*1024*11/4096 = 11 bits/block.
	if got := TangBits(4, 1024, 4096, 10); got != 11 {
		t.Errorf("TangBits = %v, want 11", got)
	}
	if TangBits(4, 1024, 0, 10) != 0 {
		t.Error("zero memory should yield 0")
	}
}

func TestStandardSpecs(t *testing.T) {
	var names []string
	for _, s := range StandardSpecs(1, 4) {
		names = append(names, s.Name)
	}
	want := []string{"full-map", "two-bit", "coarse-2logn", "ptr(1)+B", "ptr(1)", "ptr(4)+B", "ptr(4)"}
	if !slices.Equal(names, want) {
		t.Errorf("StandardSpecs(1, 4) = %v, want %v", names, want)
	}
	if got := StandardSpecs()[0].BitsPerEntry(64); got != 65 {
		t.Errorf("full map at 64 CPUs = %d bits, want 65", got)
	}
}
