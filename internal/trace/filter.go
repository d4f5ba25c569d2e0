package trace

import (
	"fmt"
	"math/bits"
)

// FilterFunc decides whether a reference is kept by a filtered Source.
type FilterFunc func(Ref) bool

// Filtered wraps src, yielding only references for which keep returns true.
// The CPU count is preserved.
func Filtered(src Source, keep FilterFunc) Source {
	return &filterSource{Source: src, keep: keep}
}

type filterSource struct {
	Source
	keep FilterFunc
}

// NextBatch pulls a batch from the underlying source and compacts the
// surviving references in place, retrying until at least one reference
// passes the filter or the source is exhausted.
func (f *filterSource) NextBatch(buf []Ref) int {
	for {
		n := f.Source.NextBatch(buf)
		if n == 0 {
			return 0
		}
		k := 0
		for i := 0; i < n; i++ {
			if f.keep(buf[i]) {
				buf[k] = buf[i]
				k++
			}
		}
		if k > 0 {
			return k
		}
	}
}

// WithoutSpins removes lock-test spin reads, reproducing the Section 5.2
// experiment ("excluding all the tests on locks"). Acquire and release
// accesses are retained: only the polling reads disappear.
func WithoutSpins(src Source) Source {
	return Filtered(src, func(r Ref) bool { return !r.Flags.Has(FlagSpin) })
}

// Map transforms each reference of src with fn. The CPU count is preserved,
// so fn must not move references onto CPUs outside the original range.
func Map(src Source, fn func(Ref) Ref) Source {
	return &mapSource{Source: src, fn: fn}
}

type mapSource struct {
	Source
	fn func(Ref) Ref
}

// NextBatch pulls a batch from the underlying source and transforms it in
// place.
func (m *mapSource) NextBatch(buf []Ref) int {
	n := m.Source.NextBatch(buf)
	for i := 0; i < n; i++ {
		buf[i] = m.fn(buf[i])
	}
	return n
}

// ProcAsCPU remaps every reference's CPU to its process id, so a
// downstream simulator caches per *process* rather than per processor —
// the classification the paper uses to exclude migration-induced sharing
// (Section 4.4). It requires process ids below the CPU count.
func ProcAsCPU(src Source) Source {
	return Map(src, func(r Ref) Ref {
		r.CPU = uint8(r.Proc)
		return r
	})
}

// WithBlockSize rescales addresses so that the simulator's fixed 16-byte
// block granularity models blocks of the given size instead: addresses
// are divided by size/16, which makes BlockOf group references at the
// larger granularity. Offsets within a block are irrelevant to the
// engines, so this is exact for classification purposes. The bus cost
// models must be rebuilt for the matching word count (bus.PipelinedWords).
// size must pass CheckBlockSize; BlockBytes returns src itself.
func WithBlockSize(src Source, size int) (Source, error) {
	if err := CheckBlockSize(size); err != nil {
		return nil, err
	}
	if size == BlockBytes {
		return src, nil
	}
	return &shiftSource{Source: src, shift: bits.TrailingZeros(uint(size / BlockBytes))}, nil
}

// CheckBlockSize reports whether WithBlockSize can model blocks of size
// bytes: a power of two, at least BlockBytes.
func CheckBlockSize(size int) error {
	if size < BlockBytes || size&(size-1) != 0 {
		return fmt.Errorf("trace: block size %d must be a power of two >= %d", size, BlockBytes)
	}
	return nil
}

// shiftSource shifts every address right, in the caller's buffer.
type shiftSource struct {
	Source
	shift int
}

func (s *shiftSource) NextBatch(buf []Ref) int {
	n := s.Source.NextBatch(buf)
	for i := range buf[:n] {
		buf[i].Addr >>= s.shift
	}
	return n
}

// Limit yields at most n references from src.
func Limit(src Source, n int) Source {
	return &limitSource{Source: src, left: n}
}

type limitSource struct {
	Source
	left int
}

// NextBatch pulls at most the remaining quota in one underlying batch.
func (l *limitSource) NextBatch(buf []Ref) int {
	if l.left <= 0 {
		return 0
	}
	if l.left < len(buf) {
		buf = buf[:l.left]
	}
	n := l.Source.NextBatch(buf)
	l.left -= n
	return n
}
