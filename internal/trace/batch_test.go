package trace

import (
	"slices"
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

// TestBatchedWindow checks Next over a trace's own Iterator: it yields
// exactly the trace, each batch a window onto Refs itself with no room
// to append into, and never allocates or touches the buffer — for an
// empty trace, one shorter than the batch, and one that batch sizes do
// and do not divide. Over any other source Next reads through NextBatch
// into the buffer, allocated on first use.
func TestBatchedWindow(t *testing.T) {
	for _, tr := range []*Trace{testTrace(0), testTrace(5), testTrace(4099)} {
		for _, n := range []int{1, 7, 4096, 10_000} {
			src := tr.Iterator()
			var buf []Ref
			var got []Ref
			for {
				w := Next(src, &buf, n)
				if len(w) == 0 {
					break
				}
				if len(w) > n || cap(w) != len(w) || &w[0] != &tr.Refs[len(got)] {
					t.Fatalf("%d refs, batch %d: window of %d (cap %d) at ref %d is not a capped view of the trace",
						tr.Len(), n, len(w), cap(w), len(got))
				}
				got = append(got, w...)
			}
			if buf != nil {
				t.Errorf("%d refs, batch %d: the window allocated a buffer", tr.Len(), n)
			}
			if !slices.Equal(got, tr.Refs) {
				t.Errorf("%d refs, batch %d: window yielded %d refs (or they differ)", tr.Len(), n, len(got))
			}
			if w := Next(src, &buf, n); len(w) != 0 {
				t.Errorf("%d refs, batch %d: Next returned %d refs after exhaustion", tr.Len(), n, len(w))
			}
		}
	}

	tr := testTrace(50)
	src := Limit(tr.Iterator(), 20)
	var buf []Ref
	var got []Ref
	for w := Next(src, &buf, 7); len(w) > 0; w = Next(src, &buf, 7) {
		if &w[0] != &buf[0] {
			t.Fatal("a wrapped source's batch is not in the buffer")
		}
		got = append(got, w...)
	}
	if len(buf) != 7 || !slices.Equal(got, tr.Refs[:20]) {
		t.Errorf("Next over Limit: buffer of %d, %d refs delivered", len(buf), len(got))
	}
}
