package engine

import (
	"context"
	"testing"

	"dirsim/internal/obs"
	"dirsim/internal/workload"
)

// benchCompare measures the full pipeline — three generations, each
// replayed by three concurrent simulators, plus merges — on a fresh
// engine every iteration, so caching never hides the work.
func benchCompare(b *testing.B, o Observer) {
	b.Helper()
	cfgs := workload.StandardConfigs(4, 30_000)
	schemes := []string{"Dir0B", "WTI", "Dragon"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := New(Options{Observer: o})
		if _, err := e.Compare(context.Background(), Parallel{Workers: 4}, schemes, cfgs, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompareNoObserver is the engine's baseline throughput with
// observation disabled — the acceptance bar is that this path stays
// within 2% of the pre-observability engine (the only additions are nil
// checks and the same atomic counter adds the private fields used to
// cost).
func BenchmarkCompareNoObserver(b *testing.B) { benchCompare(b, nil) }

// BenchmarkCompareObserved runs the same work with a full recorder
// (registry + phase breakdown, no journal) attached.
func BenchmarkCompareObserved(b *testing.B) {
	benchCompare(b, obs.NewRecorder(nil, nil))
}
