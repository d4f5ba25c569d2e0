package engine

import (
	"context"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"dirsim/internal/faults"
	"dirsim/internal/sim"
	"dirsim/internal/trace"
	"dirsim/internal/workload"
)

// TestSourcesDeliverTrace holds every Source shape in the tree, alone and
// composed the way the engine and the studies compose them, to the
// sequence a plain loop over the trace's references yields — at buffer
// sizes of one reference, a prime, a few batches' worth and more than the
// whole stream — and to an exhaustion that sticks.
func TestSourcesDeliverTrace(t *testing.T) {
	tr := workload.POPS(4, 5000)
	all := tr.Len()
	inj := faults.New(faults.Config{Seed: 1, Truncate: 1})
	cut, ok := inj.TruncateAfter("cut", int64(all))
	if !ok || cut <= 0 {
		t.Fatalf("truncation at p=1 cut after %d refs (fired: %v)", cut, ok)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	dataOnly := func(r trace.Ref) bool { return r.Kind != trace.Instr }
	noSpin := func(r trace.Ref) bool { return !r.Flags.Has(trace.FlagSpin) }
	procToCPU := func(r trace.Ref) trace.Ref {
		r.Proc = uint16(r.CPU)
		return r
	}
	blocks := func(src trace.Source, size int) trace.Source {
		out, err := trace.WithBlockSize(src, size)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	// want is the plain loop: the first n references of tr.Refs that
	// keep accepts, each passed through fn.
	want := func(n int, fn func(trace.Ref) trace.Ref, keep func(trace.Ref) bool) []trace.Ref {
		var out []trace.Ref
		for _, r := range tr.Refs {
			if len(out) == n {
				break
			}
			if r = fn(r); keep(r) {
				out = append(out, r)
			}
		}
		return out
	}
	same := func(r trace.Ref) trace.Ref { return r }
	every := func(trace.Ref) bool { return true }
	shift := func(by int) func(trace.Ref) trace.Ref {
		return func(r trace.Ref) trace.Ref {
			r.Addr >>= by
			return r
		}
	}

	shapes := []struct {
		name string
		mk   func() trace.Source
		want []trace.Ref
	}{
		{"slice", func() trace.Source { return tr.Iterator() }, want(all, same, every)},
		{"filter", func() trace.Source { return trace.Filtered(tr.Iterator(), dataOnly) }, want(all, same, dataOnly)},
		{"map", func() trace.Source { return trace.Map(tr.Iterator(), procToCPU) }, want(all, procToCPU, every)},
		{"shift 32", func() trace.Source { return blocks(tr.Iterator(), 32) }, want(all, shift(1), every)},
		{"shift 128", func() trace.Source { return blocks(tr.Iterator(), 128) }, want(all, shift(3), every)},
		{"limit", func() trace.Source { return trace.Limit(tr.Iterator(), 1234) }, want(1234, same, every)},
		{"context", func() trace.Source { return tr.IteratorContext(context.Background()) }, want(all, same, every)},
		{"context, cancelled", func() trace.Source { return tr.IteratorContext(cancelled) }, nil},
		{"truncated", func() trace.Source { return inj.WrapSource("cut", tr.Iterator(), int64(all)) }, want(int(cut), same, every)},
		// simulate's chain: a replay its context may stop, then
		// faults, then block size; cancelled, it delivers nothing.
		{"shift 64(truncated(context))", func() trace.Source {
			return blocks(inj.WrapSource("cut", tr.IteratorContext(context.Background()), int64(all)), 64)
		}, want(int(cut), shift(2), every)},
		{"shift 64(truncated(context, cancelled))", func() trace.Source {
			return blocks(inj.WrapSource("cut", tr.IteratorContext(cancelled), int64(all)), 64)
		}, nil},
		// A study's filtered replay, cut short.
		{"limit(filter(map))", func() trace.Source {
			return trace.Limit(trace.WithoutSpins(trace.Map(tr.Iterator(), procToCPU)), 2000)
		}, want(2000, procToCPU, noSpin)},
	}
	for _, sh := range shapes {
		for _, size := range []int{1, 7, 64, 2048, all + 1} {
			src := sh.mk()
			if src.CPUCount() != tr.CPUs {
				t.Errorf("%s: CPUCount = %d, want %d", sh.name, src.CPUCount(), tr.CPUs)
			}
			buf := make([]trace.Ref, size)
			var got []trace.Ref
			for {
				n := src.NextBatch(buf)
				if n == 0 {
					break
				}
				got = append(got, buf[:n]...)
			}
			if !slices.Equal(got, sh.want) {
				t.Errorf("%s, buffer %d: delivered %d refs, want %d (or they differ)",
					sh.name, size, len(got), len(sh.want))
			}
			for range 2 {
				if n := src.NextBatch(buf); n != 0 {
					t.Errorf("%s, buffer %d: NextBatch returned %d after exhaustion", sh.name, size, n)
				}
			}
			// The simulator's reader, trace.Next: a window onto the trace
			// for the trace's own iterators, a copy into its buffer for
			// the rest.
			src, got = sh.mk(), nil
			var nextBuf []trace.Ref
			for w := trace.Next(src, &nextBuf, size); len(w) > 0; w = trace.Next(src, &nextBuf, size) {
				got = append(got, w...)
			}
			if !slices.Equal(got, sh.want) {
				t.Errorf("%s, batch %d: trace.Next delivered %d refs, want %d (or they differ)",
					sh.name, size, len(got), len(sh.want))
			}
		}
		// The bench-frozen trace.Batched must stay the identity.
		if src := sh.mk(); trace.Batched(src) != src {
			t.Errorf("%s: trace.Batched wrapped its argument", sh.name)
		}
	}
}

// TestParallelCompareCachesEachTraceOnce: a Parallel Compare generates
// each workload once for all of its schemes and leaves the trace cached,
// so a later Trace call costs nothing.
func TestParallelCompareCachesEachTraceOnce(t *testing.T) {
	ctx := context.Background()
	cfgs := workload.StandardConfigs(4, 20_000)

	e := New(Options{})
	if _, err := e.Compare(ctx, Parallel{Workers: 4}, []string{"Dir0B", "WTI"}, cfgs, false); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.TracesGenerated != int64(len(cfgs)) {
		t.Errorf("TracesGenerated = %d, want %d (both schemes share one generation)",
			s.TracesGenerated, len(cfgs))
	}
	if s.CachedTraces != len(cfgs) {
		t.Errorf("CachedTraces = %d, want %d", s.CachedTraces, len(cfgs))
	}
	for _, cfg := range cfgs {
		if _, err := e.Trace(ctx, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Stats().TracesGenerated; got != s.TracesGenerated {
		t.Errorf("Trace() after the batch regenerated a workload: %d generations, want %d",
			got, s.TracesGenerated)
	}
}

// TestUnfilteredJobReadsTraceInPlace: an engine job over a spec with no
// filter, fault or block size hands the simulator the trace's own
// iterator, so the simulation reads each batch where the trace holds it
// and allocates no buffer to copy it into. The trace is read hits on one
// block, so the job's other allocations (the protocol engine, its one
// block page, the result) stay well below one batch of references.
func TestUnfilteredJobReadsTraceInPlace(t *testing.T) {
	tr := trace.New("rereads", 2)
	for range 4 * sim.DefaultBatchRefs {
		tr.Append(trace.Ref{Addr: 64, Kind: trace.Read})
	}
	e := New(Options{})
	cfg, err := e.Adopt(tr)
	if err != nil {
		t.Fatal(err)
	}
	spec := SimSpec{Trace: cfg, Scheme: "Dir0B"}
	ctx := context.Background()
	const runs = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := e.simulate(ctx, []SimSpec{spec}, tr); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	batch := uint64(sim.DefaultBatchRefs) * uint64(unsafe.Sizeof(trace.Ref{}))
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= batch/2 {
		t.Errorf("a simulation allocated %d bytes; one batch of references is %d", per, batch)
	}
}
