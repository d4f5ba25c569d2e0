// Package directory models the *storage organizations* of directory
// entries discussed throughout the paper: Tang's duplicate-tag directory,
// the Censier–Feautrier full bit map, Archibald–Baer's two state bits, the
// limited-pointer entries of the Dir_i taxonomy, and the Section 6 coarse
// ternary-digit code that names a superset of holders in 2·log2(n) bits.
//
// The protocol engines in internal/core decide *when* invalidations
// happen and to whom — the coarse study measures the coarse code's wasted
// invalidations on real traces, DirCV's messages against DirNNB's; this
// package answers the orthogonal question of how many bits each
// organization needs per block.
package directory

import (
	"fmt"
	"math/bits"
)

// log2Ceil returns ceil(log2(n)) for n >= 1.
func log2Ceil(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Spec is a concrete directory-entry layout description.
type Spec struct {
	// Name identifies the layout ("full-map", "ptr(2)+B", ...).
	Name string
	// Precise reports whether the layout always identifies the exact
	// holder set.
	Precise bool
	// BitsPerEntry returns per-block directory storage for ncpu caches.
	BitsPerEntry func(ncpu int) int
}

// FullMap is the Censier–Feautrier organization: one valid bit per cache
// plus a dirty bit (DirNNB).
func FullMap() Spec {
	return Spec{
		Name:         "full-map",
		Precise:      true,
		BitsPerEntry: func(ncpu int) int { return ncpu + 1 },
	}
}

// TwoBit is the Archibald–Baer organization (Dir0B): two state bits
// encoding uncached / clean-exactly-one / clean-unknown / dirty-one.
func TwoBit() Spec {
	return Spec{
		Name:         "two-bit",
		Precise:      false,
		BitsPerEntry: func(int) int { return 2 },
	}
}

// LimitedPointer is the Dir_i organization: i pointers of log2(n) bits, a
// dirty bit, and a broadcast bit when the scheme falls back to broadcast
// (DiriB) rather than limiting copies (DiriNB).
func LimitedPointer(i int, broadcast bool) Spec {
	name := fmt.Sprintf("ptr(%d)", i)
	if broadcast {
		name += "+B"
	}
	return Spec{
		Name:    name,
		Precise: false,
		BitsPerEntry: func(ncpu int) int {
			b := i*log2Ceil(ncpu) + 1
			if broadcast {
				b++
			}
			// A pointer-count field distinguishes how many
			// pointers are live.
			b += log2Ceil(i + 1)
			return b
		},
	}
}

// CoarseCode is the Section 6 ternary-digit organization: log2(n) digits,
// each 0, 1, or "both", coded in 2 bits per digit, plus a dirty bit. It
// names a superset of the caches holding the block.
func CoarseCode() Spec {
	return Spec{
		Name:         "coarse-2logn",
		Precise:      false,
		BitsPerEntry: func(ncpu int) int { return 2*log2Ceil(ncpu) + 1 },
	}
}

// TangDuplicate is Tang's organization: the directory is a copy of every
// cache's tag store. Storage is per cache *line* rather than per memory
// block, so BitsPerEntry reports the equivalent per-block cost for a
// machine whose caches together hold cacheLinesPerCPU lines per CPU out of
// memBlocks memory blocks: (ncpu · lines · (tag+dirty)) / memBlocks.
// Because the cost structure is so different, Tang appears only in the
// storage comparison, via TangBits.
func TangBits(ncpu, cacheLinesPerCPU, memBlocks, tagBits int) float64 {
	if memBlocks <= 0 {
		return 0
	}
	total := float64(ncpu) * float64(cacheLinesPerCPU) * float64(tagBits+1)
	return total / float64(memBlocks)
}

// StandardSpecs returns the organizations compared in the Section 6
// discussion, with i-pointer entries for the given i values.
func StandardSpecs(ptrCounts ...int) []Spec {
	specs := []Spec{FullMap(), TwoBit(), CoarseCode()}
	for _, i := range ptrCounts {
		specs = append(specs, LimitedPointer(i, true), LimitedPointer(i, false))
	}
	return specs
}
