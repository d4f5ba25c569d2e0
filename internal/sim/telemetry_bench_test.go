// Benchmarks for the observability overhead on the simulation hot path:
// the batched Simulate loop with telemetry disabled (nil Telemetry — the
// default for every plain run) against the same loop with a sampling
// ProtoSampler attached. With no Telemetry the record path pays one nil
// check per recorded event and nothing else.
//
// The machine-readable report covering these variants plus the engine
// tracing stack lives at the repo root (TestWriteObsBenchJSON, writes
// BENCH_obs.json; run it with `make bench-obs`).
package sim

import (
	"context"
	"testing"

	"dirsim/internal/obs"
)

func BenchmarkHotpathTelemetryOff(b *testing.B) {
	traces := hotpathWorkloads(b, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runLoop(b, "Dir1NB", traces, Options{})
	}
}

func BenchmarkHotpathTelemetryOn(b *testing.B) {
	traces := hotpathWorkloads(b, 100_000)
	reg := obs.NewRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runLoop(b, "Dir1NB", traces,
			Options{Telemetry: obs.NewProtoSampler(context.Background(), reg, "Dir1NB", 64)})
	}
}
