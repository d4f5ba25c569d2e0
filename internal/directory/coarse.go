package directory

import (
	"fmt"
	"math/bits"
)

// Code is the Section 6 coarse ternary-digit encoding of a set of cache
// indices: a word of d = log2(n) digits, each of which is 0, 1, or "both".
// If every digit is 0/1 the code names exactly one cache; each "both"
// digit doubles the set named. The code of a holder set is the smallest
// such pattern covering every member — a superset, so invalidating every
// named cache is always safe, at the cost of some unnecessary messages.
//
// The representation uses two bitmasks over digit positions: value[i] is
// the digit's bit value where fixed, and wild marks "both" digits. The
// zero Code names no cache at all.
type Code struct {
	value uint32 // digit values at fixed positions
	wild  uint32 // positions coded "both"
	named bool   // at least one cache is named
}

// EmptyCode returns the code naming no caches.
func EmptyCode() Code { return Code{} }

// CodeOf returns the code naming exactly cache c.
func CodeOf(c uint8) Code { return Code{value: uint32(c), named: true} }

// Add returns the smallest code covering both the current set and cache c.
func (k Code) Add(c uint8) Code {
	if !k.named {
		return CodeOf(c)
	}
	diff := (k.value ^ uint32(c)) &^ k.wild
	k.wild |= diff
	k.value &^= diff
	return k
}

// Covers reports whether the code names cache c.
func (k Code) Covers(c uint8) bool {
	if !k.named {
		return false
	}
	return (k.value^uint32(c))&^k.wild == 0
}

// Count returns how many caches of an n-cache machine the code names.
// n must be a power of two for the digit encoding to be exact; other
// machine sizes are handled by clipping to n.
func (k Code) Count(n int) int {
	if !k.named {
		return 0
	}
	d := log2Ceil(n)
	relevant := k.wild & (1<<uint(d) - 1)
	c := 1 << uint(bits.OnesCount32(relevant))
	// Clip: with non-power-of-two n some named indices do not exist.
	if c > n {
		c = n
	}
	// Count precisely when clipping may matter.
	if c == n || n&(n-1) != 0 {
		precise := 0
		for i := 0; i < n; i++ {
			if k.Covers(uint8(i)) {
				precise++
			}
		}
		return precise
	}
	return c
}

// Members appends all cache indices below n that the code names.
func (k Code) Members(n int, dst []uint8) []uint8 {
	for i := 0; i < n; i++ {
		if k.Covers(uint8(i)) {
			dst = append(dst, uint8(i))
		}
	}
	return dst
}

// String renders the code most-significant digit first for d digits
// covering machines up to 256 caches.
func (k Code) String() string {
	if !k.named {
		return "<empty>"
	}
	const d = 8
	out := make([]byte, d)
	for i := 0; i < d; i++ {
		pos := uint(d - 1 - i)
		switch {
		case k.wild>>pos&1 == 1:
			out[i] = '*'
		case k.value>>pos&1 == 1:
			out[i] = '1'
		default:
			out[i] = '0'
		}
	}
	return string(out)
}

// Validate checks internal consistency (wild and value bits must not
// overlap).
func (k Code) Validate() error {
	if k.value&k.wild != 0 {
		return fmt.Errorf("directory: code has value bits at wild positions: %s", k)
	}
	return nil
}
