package sim

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"dirsim/internal/core"
	"dirsim/internal/trace"
	"dirsim/internal/workload"
)

// copyOnly hides a source's type behind NextBatch, so Simulate copies
// each batch into its own buffer, as it does for every wrapped source.
type copyOnly struct{ trace.Source }

// TestInPlaceReadMatchesCopy holds Simulate's three ways of reading a
// trace to one Result: in place over the trace's own Iterator, copied
// through NextBatch behind copyOnly, and reference by reference with
// Check on — for every scheme name, the pointer schemes and a finite
// cache, at 4 and 64 CPUs. No run may write to the trace it reads in
// place, and only the copying run allocates a reference buffer.
func TestInPlaceReadMatchesCopy(t *testing.T) {
	schemes := append(core.Schemes(), "Dir1B", "Dir2NB", "FiniteDirNNB:512b2w")
	for _, ncpu := range []int{4, 64} {
		tr := workload.MustGenerate(workload.POPSConfig(ncpu, 20_001))
		sum := trace.Checksum(tr.Refs)
		for _, scheme := range schemes {
			run := func(src trace.Source, opts Options) *Result {
				p, err := core.NewByName(scheme, ncpu)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Simulate(p, src, opts)
				if err != nil {
					t.Fatalf("%s at %d CPUs: %v", scheme, ncpu, err)
				}
				return res
			}
			want := run(tr.Iterator(), Options{})
			for how, got := range map[string]*Result{
				"copied":  run(copyOnly{tr.Iterator()}, Options{}),
				"checked": run(tr.Iterator(), Options{Check: true}),
			} {
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s at %d CPUs: %s read differs from the in-place read", scheme, ncpu, how)
				}
			}
			if trace.Checksum(tr.Refs) != sum {
				t.Fatalf("%s at %d CPUs: simulating wrote to the trace", scheme, ncpu)
			}
		}
	}

	// The copying run's extra bytes are its reference buffer (and the
	// wrapper); without them the in-place run allocated it too. Each side
	// is the least of three runs: a run that finds no pooled batch in its
	// P's slot (the goroutine moved to another P) allocates a new one,
	// hundreds of bytes that are not what this compares.
	tr := workload.MustGenerate(workload.POPSConfig(4, 20_001))
	heapBytes := func(src func() trace.Source) uint64 {
		least := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := Simulate(core.NewDir0B(4), src(), Options{}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	inPlace := heapBytes(func() trace.Source { return tr.Iterator() })
	copied := heapBytes(func() trace.Source { return copyOnly{tr.Iterator()} })
	if buf := uint64(DefaultBatchRefs * unsafe.Sizeof(trace.Ref{})); copied < inPlace+buf {
		t.Errorf("reading in place allocates %d bytes, copying %d: less than the %d-byte reference buffer apart", inPlace, copied, buf)
	}
}
