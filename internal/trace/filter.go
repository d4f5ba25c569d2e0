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
	return &filterSource{src: src, b: Batched(src), keep: keep}
}

type filterSource struct {
	src  Source
	b    BatchSource // batched view of src, for NextBatch
	keep FilterFunc
}

func (f *filterSource) Next() (Ref, bool) {
	for {
		r, ok := f.src.Next()
		if !ok {
			return Ref{}, false
		}
		if f.keep(r) {
			return r, true
		}
	}
}

func (f *filterSource) CPUCount() int { return f.src.CPUCount() }

// NextBatch pulls a batch from the underlying source and compacts the
// surviving references in place, retrying until at least one reference
// passes the filter or the source is exhausted.
func (f *filterSource) NextBatch(buf []Ref) int {
	for {
		n := f.b.NextBatch(buf)
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

// DataOnly removes instruction fetches. The protocol engines ignore
// instruction references anyway; this filter exists for workload analyses.
func DataOnly(src Source) Source {
	return Filtered(src, func(r Ref) bool { return r.Kind != Instr })
}

// OnlyCPU keeps the references issued by a single processor.
func OnlyCPU(src Source, cpu uint8) Source {
	return Filtered(src, func(r Ref) bool { return r.CPU == cpu })
}

// Map transforms each reference of src with fn. The CPU count is preserved,
// so fn must not move references onto CPUs outside the original range.
func Map(src Source, fn func(Ref) Ref) Source {
	return &mapSource{src: src, b: Batched(src), fn: fn}
}

type mapSource struct {
	src Source
	b   BatchSource // batched view of src, for NextBatch
	fn  func(Ref) Ref
}

func (m *mapSource) Next() (Ref, bool) {
	r, ok := m.src.Next()
	if !ok {
		return Ref{}, false
	}
	return m.fn(r), true
}

func (m *mapSource) CPUCount() int { return m.src.CPUCount() }

// NextBatch pulls a batch from the underlying source and transforms it in
// place.
func (m *mapSource) NextBatch(buf []Ref) int {
	n := m.b.NextBatch(buf)
	for i := 0; i < n; i++ {
		buf[i] = m.fn(buf[i])
	}
	return n
}

// ProcessToCPU remaps every reference's process id to its CPU number,
// collapsing process-based sharing onto processor-based sharing. The paper
// reports the two gave nearly identical numbers on its traces; this mapping
// lets tests verify the same property on ours.
func ProcessToCPU(src Source) Source {
	return Map(src, func(r Ref) Ref {
		r.Proc = uint16(r.CPU)
		return r
	})
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
// size must be a power of two, at least BlockBytes (which returns src itself).
func WithBlockSize(src Source, size int) (Source, error) {
	if size < BlockBytes || size&(size-1) != 0 {
		return nil, fmt.Errorf("trace: block size %d must be a power of two >= %d", size, BlockBytes)
	}
	if size == BlockBytes {
		return src, nil
	}
	return &shiftSource{BatchSource: Batched(src), shift: bits.TrailingZeros(uint(size / BlockBytes))}, nil
}

// shiftSource shifts every address right, in the caller's buffer.
type shiftSource struct {
	BatchSource
	shift int
}

func (s *shiftSource) Next() (Ref, bool) {
	r, ok := s.BatchSource.Next()
	r.Addr >>= s.shift
	return r, ok
}

func (s *shiftSource) NextBatch(buf []Ref) int {
	n := s.BatchSource.NextBatch(buf)
	for i := range buf[:n] {
		buf[i].Addr >>= s.shift
	}
	return n
}

// Limit yields at most n references from src.
func Limit(src Source, n int) Source {
	return &limitSource{src: src, b: Batched(src), left: n}
}

type limitSource struct {
	src  Source
	b    BatchSource // batched view of src, for NextBatch
	left int
}

func (l *limitSource) Next() (Ref, bool) {
	if l.left <= 0 {
		return Ref{}, false
	}
	l.left--
	return l.src.Next()
}

func (l *limitSource) CPUCount() int { return l.src.CPUCount() }

// NextBatch pulls at most the remaining quota in one underlying batch.
func (l *limitSource) NextBatch(buf []Ref) int {
	if l.left <= 0 {
		return 0
	}
	if l.left < len(buf) {
		buf = buf[:l.left]
	}
	n := l.b.NextBatch(buf)
	l.left -= n
	return n
}
