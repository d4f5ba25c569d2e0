package trace

import (
	"testing"
)

// testTrace builds a deterministic little trace exercising every kind and
// a few flags.
func testTrace(n int) *Trace {
	t := New("batch-test", 4)
	for i := 0; i < n; i++ {
		t.Append(Ref{
			Addr:  uint64(i) * 8,
			Proc:  uint16(i % 4),
			CPU:   uint8(i % 4),
			Kind:  Kind(i % int(numKinds)),
			Flags: Flag(i % 3),
		})
	}
	return t
}

// drainBatch collects a source through NextBatch with the given buffer
// size.
func drainBatch(src Source, bufSize int) []Ref {
	buf := make([]Ref, bufSize)
	var out []Ref
	for {
		n := src.NextBatch(buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

// drain collects a source through a buffer small enough that every
// test stream spans several batches.
func drain(src Source) []Ref { return drainBatch(src, 3) }

// TestBatchedExhaustionSticks checks that NextBatch keeps returning 0
// after the stream ends.
func TestBatchedExhaustionSticks(t *testing.T) {
	for _, mk := range []func() Source{
		func() Source { return testTrace(5).Iterator() },
		func() Source { return Filtered(testTrace(5).Iterator(), func(r Ref) bool { return r.Kind != Instr }) },
		func() Source { return Limit(testTrace(5).Iterator(), 3) },
	} {
		b := mk()
		buf := make([]Ref, 16)
		for b.NextBatch(buf) != 0 {
		}
		if n := b.NextBatch(buf); n != 0 {
			t.Errorf("NextBatch returned %d after exhaustion", n)
		}
	}
}
