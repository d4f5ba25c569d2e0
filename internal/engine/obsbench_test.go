package engine

import (
	"context"
	"io"
	"testing"

	"dirsim/internal/obs"
	"dirsim/internal/workload"
)

// benchCompare measures the full pipeline — three generations, each
// replayed by three concurrent simulators, plus merges — on a fresh
// engine every iteration, so caching never hides the work. observed
// attaches the full tracing stack: a trace context and a journal on the
// submitting context.
func benchCompare(b *testing.B, observed bool) {
	b.Helper()
	cfgs := workload.StandardConfigs(4, 30_000)
	schemes := []string{"Dir0B", "WTI", "Dragon"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var opts Options
		ctx := context.Background()
		if observed {
			tc := obs.NewTraceContext()
			ctx = obs.WithJournal(obs.WithTrace(ctx, tc), obs.NewJournal(io.Discard).WithTrace(tc))
		}
		e := New(opts)
		if _, err := e.Compare(ctx, Parallel{Workers: 4}, schemes, cfgs, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompareNoObserver is the engine's baseline throughput with
// no journal or observer: the only additions over an
// uninstrumented engine are nil checks and atomic counter adds.
func BenchmarkCompareNoObserver(b *testing.B) { benchCompare(b, false) }

// BenchmarkCompareObserved runs the same work journaled and traced.
func BenchmarkCompareObserved(b *testing.B) { benchCompare(b, true) }
