// Machine-readable benchmarking of the observability overhead. Gated
// behind an environment variable because it runs real measurements, not
// assertions:
//
//	DIRSIM_BENCH_JSON=1 go test -run TestWriteObsBenchJSON .
//
// writes BENCH_obs.json at the repo root with three variants:
//
//   - engine-notrace / engine-traced: an uncached engine run with no
//     journal against the same run with the full tracing stack this repo
//     ships — a TraceContext plus a journal tagged with it on the
//     submitting context, which is every span's one record — the
//     per-request cost of end-to-end tracing.
//   - engine-shipped: the engine-traced run with its journal teed
//     through a long-lived JournalShipper posting to a local HTTP sink
//     — the dirsimw -ship-journal path at steady state. Compared
//     against engine-traced; the shipper must stay under 3% on top of
//     tracing (enforced below), because shipping is asynchronous and
//     the hot path only appends to a bounded in-memory buffer.
//
// The engine pair is the number the tracing subsystem is held to: the
// traced run must stay within a few percent of the untraced one because
// every callback cost is per job, amortized over hundreds of thousands
// of simulated references.
package dirsim_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"
	"time"

	"dirsim/internal/dist"
	"dirsim/internal/engine"
	"dirsim/internal/obs"
	"dirsim/internal/trace"
	"dirsim/internal/workload"
)

// obsBenchTraces materializes the standard traces, whose lengths are
// the references each engine run simulates.
func obsBenchTraces(tb testing.TB, cfgs []workload.Config) []*trace.Trace {
	tb.Helper()
	traces := make([]*trace.Trace, len(cfgs))
	for i, cfg := range cfgs {
		t, err := workload.Generate(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		traces[i] = t
	}
	return traces
}

// tracedRun is one uncached engine run under the full tracing stack: a
// trace context plus a journal into w tagged with it on the submitting
// context — what every binary attaches, and all a span needs.
func tracedRun(tb testing.TB, w io.Writer, scheme string, cfgs []workload.Config) {
	tc := obs.NewTraceContext()
	ctx := obs.WithJournal(obs.WithTrace(context.Background(), tc), obs.NewJournal(w).WithTrace(tc))
	e := engine.New(engine.Options{})
	if _, err := e.Compare(ctx, engine.Sequential{}, []string{scheme}, cfgs, false); err != nil {
		tb.Fatal(err)
	}
}

// obsBenchRecord is one measured variant.
type obsBenchRecord struct {
	Path        string  `json:"path"`
	Scheme      string  `json:"scheme"`
	Traces      int     `json:"traces"`
	RefsEach    int     `json:"refs_per_trace"`
	Iters       int     `json:"iterations"`
	NsPerOp     int64   `json:"ns_per_op"`
	RefsPerS    float64 `json:"refs_per_second"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// OverheadPct is the slowdown against this run's matching baseline
	// variant (engine-notrace for engine-traced, engine-traced for
	// engine-shipped) — same machine, same process, the fair comparison.
	OverheadPct float64 `json:"overhead_pct_vs_off"`
}

type obsBenchReport struct {
	Date       string           `json:"date"`
	GoMaxProcs int              `json:"gomaxprocs"`
	GoVersion  string           `json:"go_version"`
	Note       string           `json:"note"`
	Results    []obsBenchRecord `json:"results"`
}

// TestWriteObsBenchJSON measures the tracing variants and
// writes BENCH_obs.json at the repo root. Skipped unless
// DIRSIM_BENCH_JSON is set.
func TestWriteObsBenchJSON(t *testing.T) {
	if os.Getenv("DIRSIM_BENCH_JSON") == "" {
		t.Skip("set DIRSIM_BENCH_JSON=1 to run the observability benchmark and write BENCH_obs.json")
	}

	const refs = 200_000
	const scheme = "Dir1NB"
	cfgs := workload.StandardConfigs(4, refs)
	traces := obsBenchTraces(t, cfgs)
	totalRefs := 0
	for _, tr := range traces {
		totalRefs += tr.Len()
	}

	report := obsBenchReport{
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Note: "three standard traces under " + scheme + ". " +
			"engine-notrace/traced is a fresh uncached engine per iteration (generation " +
			"included) without observation against the full stack: a TraceContext " +
			"plus a journal to a discarded writer on the submitting context, the " +
			"one record of every span. The engine pair is this file's acceptance number: " +
			"per-job tracing must stay within a few percent. engine-shipped adds a " +
			"JournalShipper teed into the traced run's journal, posting batches to a " +
			"local HTTP sink (the dirsimw -ship-journal path); its overhead_pct_vs_off " +
			"is measured against engine-traced and gated under 3% — shipping is " +
			"asynchronous, so the hot path only pays a bounded-buffer append",
	}

	// A local sink standing in for the coordinator's journal endpoint:
	// accepts every batch and discards it. The measurement is the
	// worker-side write/batch path, not coordinator ingest.
	sink := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck
		w.WriteHeader(http.StatusOK)
	}))
	defer sink.Close()
	// The shipper is long-lived and shared across iterations, as in a
	// real worker: a per-job shipper would bill each run a synchronous
	// shutdown flush that production pays once per process. It runs at
	// the production buffer size and flush cadence, so the number is the
	// write-path cost plus background POSTs at their real frequency.
	ship := dist.NewJournalShipper(&dist.Client{Base: sink.URL}, "bench", dist.ShipperOptions{})
	defer ship.Close(context.Background())

	variants := []struct {
		path     string
		baseline string // path of the variant this one is compared against
		run      func(b *testing.B)
	}{
		{"engine-notrace", "", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := engine.New(engine.Options{})
				if _, err := e.Compare(context.Background(), engine.Sequential{}, []string{scheme}, cfgs, false); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"engine-traced", "engine-notrace", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tracedRun(b, io.Discard, scheme, cfgs)
			}
		}},
		{"engine-shipped", "engine-traced", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tracedRun(b, io.MultiWriter(io.Discard, ship), scheme, cfgs)
			}
		}},
	}

	// Interleave repetitions of every variant and keep each variant's
	// fastest repetition: single 1-second measurements on a shared box
	// drift by more than the effect being measured, and min-of-reps with
	// interleaving cancels slow monotonic drift that would otherwise
	// always penalize whichever variant runs last.
	const reps = 3
	best := make([]testing.BenchmarkResult, len(variants))
	for rep := 0; rep < reps; rep++ {
		for i, v := range variants {
			r := testing.Benchmark(v.run)
			if rep == 0 || r.NsPerOp() < best[i].NsPerOp() {
				best[i] = r
			}
		}
	}

	baselines := map[string]float64{}
	for i, v := range variants {
		r := best[i]
		rec := obsBenchRecord{
			Path:        v.path,
			Scheme:      scheme,
			Traces:      len(traces),
			RefsEach:    refs,
			Iters:       r.N,
			NsPerOp:     r.NsPerOp(),
			RefsPerS:    float64(totalRefs) / (float64(r.NsPerOp()) / 1e9),
			AllocsPerOp: r.AllocsPerOp(),
		}
		baselines[v.path] = float64(r.NsPerOp())
		if v.baseline != "" {
			if base := baselines[v.baseline]; base > 0 {
				rec.OverheadPct = 100 * (float64(r.NsPerOp()) - base) / base
			}
		}
		report.Results = append(report.Results, rec)
		t.Logf("%s: %dns/op, %.0f refs/s, %d allocs/op, overhead %.2f%%",
			v.path, r.NsPerOp(), rec.RefsPerS, r.AllocsPerOp(), rec.OverheadPct)
	}

	// The journal-shipping gate: teeing the journal through the shipper
	// must cost under 3% on top of the traced run. The shipper's write
	// path is a bounded in-memory append — anything above a few percent
	// means it started blocking the engine.
	for _, rec := range report.Results {
		if rec.Path == "engine-shipped" && rec.OverheadPct >= 3.0 {
			t.Errorf("engine-shipped overhead vs engine-traced = %.2f%%, gate is <3%%", rec.OverheadPct)
		}
	}

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_obs.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Log("wrote BENCH_obs.json")
}
