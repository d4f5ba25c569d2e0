package contention

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"dirsim/internal/bus"
	"dirsim/internal/core"
	"dirsim/internal/trace"
	"dirsim/internal/workload"
)

// referenceSimulate is the replay as it was before batching, kept as the
// oracle: one Access and one Model.Cost per reference, nothing skipped.
func referenceSimulate(t *trace.Trace, p core.Protocol, cfg Config) (Stats, int64) {
	stats := Stats{CPUs: t.CPUs}
	clock := make([]float64, t.CPUs)
	alone := make([]float64, t.CPUs)
	var busFree float64
	var transactions int64
	for _, r := range t.Refs {
		res := p.Access(r)
		c := r.CPU
		stats.Refs++
		clock[c] += cfg.ThinkCycles
		alone[c] += cfg.ThinkCycles
		cost, txn := cfg.Model.Cost(res)
		if !txn {
			continue
		}
		transactions++
		d := cost.Total()
		alone[c] += d
		req := clock[c]
		start := req
		if busFree > start {
			start = busFree
		}
		stats.Wait += start - req
		clock[c] = start + d
		busFree = start + d
		stats.BusBusy += d
	}
	for c := 0; c < t.CPUs; c++ {
		if clock[c] > stats.Span {
			stats.Span = clock[c]
		}
		stats.AloneTime += alone[c]
	}
	return stats, transactions
}

func mustScheme(t testing.TB, scheme string, cpus int) core.Protocol {
	t.Helper()
	p, err := core.NewByName(scheme, cpus)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestReplayMatchesReference holds the batched replay to the per-reference
// oracle exactly — every float of Stats and the transaction count, no
// tolerance — for native batchers and an Access-only engine (Berkeley),
// over the standard workloads at two machine sizes and three think times,
// and for traces one shorter than, equal to and one longer than a batch.
func TestReplayMatchesReference(t *testing.T) {
	var traces []*trace.Trace
	for _, cpus := range []int{4, 32} {
		for _, cfg := range workload.StandardConfigs(cpus, 3*batchRefs+777) {
			traces = append(traces, workload.MustGenerate(cfg))
		}
	}
	for _, n := range []int{batchRefs - 1, batchRefs, batchRefs + 1} {
		tr := workload.POPS(4, 2*batchRefs)
		tr.Refs = tr.Refs[:n]
		tr.Name = fmt.Sprintf("pops[:%d]", n)
		traces = append(traces, tr)
	}
	for _, tr := range traces {
		for _, scheme := range []string{"Dir0B", "Dragon", "WTI", "Berkeley"} {
			for _, think := range []float64{0, 0.3, 0.5} {
				cfg := Config{ThinkCycles: think, Model: bus.Pipelined()}
				want, wantTxns := referenceSimulate(tr, mustScheme(t, scheme, tr.CPUs), cfg)
				got, gotTxns, err := Simulate(tr, mustScheme(t, scheme, tr.CPUs), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got != want || gotTxns != wantTxns {
					t.Errorf("%s over %s at %d CPUs, think %v:\n got %+v, %d transactions\nwant %+v, %d",
						scheme, tr.Name, tr.CPUs, think, got, gotTxns, want, wantTxns)
				}
				if wantTxns == 0 || int(want.Refs) != tr.Len() {
					t.Fatalf("%s over %s: oracle replayed %d refs, %d transactions; the case tests nothing",
						scheme, tr.Name, want.Refs, wantTxns)
				}
			}
		}
	}
}

// TestReplayRejectsCPUOutsideTrace: a hand-built or file-loaded trace can
// hold a reference whose CPU the engine has but the trace's header does
// not; the replay names it instead of indexing past its per-CPU clocks.
func TestReplayRejectsCPUOutsideTrace(t *testing.T) {
	tr := workload.PingPong(2 * batchRefs) // 2 CPUs
	bad := batchRefs + 5
	tr.Refs[bad].CPU = 3
	p := core.NewDir0B(4)
	_, _, err := Simulate(tr, p, PaperConfig())
	want := fmt.Sprintf("contention: reference %d: cpu 3 outside the trace's 2 CPUs", bad)
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	// RunScheme builds its engine for the trace's own count: same error.
	if _, _, err := RunScheme("Dir0B", tr, PaperConfig()); err == nil || err.Error() != want {
		t.Errorf("RunScheme: err = %v, want %q", err, want)
	}
}

// TestReplayAllocsPerBatch: the clocks and the results buffer are the
// replay's only allocations, however many batches the trace spans.
func TestReplayAllocsPerBatch(t *testing.T) {
	long := workload.POPS(4, 16*batchRefs)
	short := &trace.Trace{Name: long.Name, CPUs: long.CPUs, Refs: long.Refs[:2*batchRefs]}
	for _, scheme := range []string{"Dir0B", "Dragon", "WTI"} {
		p := mustScheme(t, scheme, 4)
		replay := func(tr *trace.Trace) float64 {
			return testing.AllocsPerRun(3, func() {
				if _, _, err := Simulate(tr, p, PaperConfig()); err != nil {
					t.Fatal(err)
				}
			})
		}
		replay(long) // every page of the engine's block table exists now
		if a, b := replay(short), replay(long); a != b {
			t.Errorf("%s: %.0f allocations over 2 batches, %.0f over 16", scheme, a, b)
		}
	}
}

// BenchmarkReplay reports the replay's cost per reference.
func BenchmarkReplay(b *testing.B) {
	for _, cpus := range []int{4, 32} {
		for _, cfg := range workload.StandardConfigs(cpus, 400_000) {
			tr := workload.MustGenerate(cfg)
			for _, scheme := range []string{"Dir0B", "Dragon", "WTI"} {
				b.Run(fmt.Sprintf("%s/%s/%d", scheme, cfg.Name, cpus), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, _, err := RunScheme(scheme, tr, PaperConfig()); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tr.Len()), "ns/ref")
				})
			}
		}
	}
}

func TestSimulateValidation(t *testing.T) {
	tr := workload.PingPong(100) // 2 CPUs
	p := core.NewDir0B(1)
	if _, _, err := Simulate(tr, p, PaperConfig()); err == nil {
		t.Error("undersized engine accepted")
	}
	cfg := PaperConfig()
	cfg.ThinkCycles = -1
	if _, _, err := Simulate(tr, core.NewDir0B(2), cfg); err == nil {
		t.Error("negative think time accepted")
	}
}

func TestNoBusTrafficMeansNoContention(t *testing.T) {
	// Purely private data after warm-up: the bus is nearly idle, so the
	// effective parallelism approaches the CPU count.
	tr := workload.Private(4, 64, 40_000)
	s, _, err := RunScheme("Dir0B", tr, PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s.EffectiveProcessors() < 3.5 {
		t.Errorf("private workload should parallelize: %.2f effective", s.EffectiveProcessors())
	}
	if s.Utilization() > 0.2 {
		t.Errorf("bus should be mostly idle: %.2f", s.Utilization())
	}
}

func TestSingleCPUMatchesAloneTime(t *testing.T) {
	tr := workload.Private(1, 32, 5_000)
	s, _, err := RunScheme("Dir0B", tr, PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Span-s.AloneTime) > 1e-6 {
		t.Errorf("one CPU never waits: span %v vs alone %v", s.Span, s.AloneTime)
	}
	if s.Wait != 0 {
		t.Errorf("wait = %v on a single CPU", s.Wait)
	}
	if got := s.EffectiveProcessors(); math.Abs(got-1) > 1e-9 {
		t.Errorf("effective processors = %v, want 1", got)
	}
}

func TestSaturationDegradesParallelism(t *testing.T) {
	// WTI floods the bus with write-throughs; Dragon barely uses it. On
	// the same trace WTI must achieve less effective parallelism.
	tr := workload.POPS(4, 60_000)
	wti, _, err := RunScheme("WTI", tr, PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	dragon, _, err := RunScheme("Dragon", tr, PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	if wti.EffectiveProcessors() >= dragon.EffectiveProcessors() {
		t.Errorf("WTI %.2f should trail Dragon %.2f",
			wti.EffectiveProcessors(), dragon.EffectiveProcessors())
	}
	if wti.Utilization() <= dragon.Utilization() {
		t.Error("WTI should load the bus harder")
	}
}

func TestUtilizationBounded(t *testing.T) {
	tr := workload.THOR(8, 40_000)
	s, txns, err := RunScheme("Dir0B", tr, PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	if u := s.Utilization(); u <= 0 || u > 1+1e-9 {
		t.Errorf("utilization out of range: %v", u)
	}
	if s.EffectiveProcessors() > float64(s.CPUs)+1e-9 {
		t.Errorf("effective processors %v exceed machine size", s.EffectiveProcessors())
	}
	if s.Wait < 0 || txns <= 0 {
		t.Errorf("wait %v over %d transactions", s.Wait, txns)
	}
}

func TestContentionBelowOptimisticBound(t *testing.T) {
	// The queueing simulation can never beat the paper's no-contention
	// bound computed from the same demand.
	tr := workload.POPS(8, 60_000)
	s, _, err := RunScheme("Dir0B", tr, PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	demandPerRef := s.BusBusy / float64(s.Refs)
	bound := (PaperConfig().ThinkCycles + demandPerRef) / demandPerRef
	if s.EffectiveProcessors() > bound+1e-6 {
		t.Errorf("simulation %.2f beat the analytic bound %.2f",
			s.EffectiveProcessors(), bound)
	}
}

func TestDeterministicReplay(t *testing.T) {
	tr := workload.PingPong(2_000)
	a, _, err := RunScheme("Dir0B", tr, PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := RunScheme("Dir0B", tr, PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("replay is not deterministic")
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{CPUs: 4, Span: 100, BusBusy: 50, AloneTime: 300}
	out := s.String()
	for _, want := range []string{"4 CPUs", "50.0%", "3.00 effective"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() = %q missing %q", out, want)
		}
	}
	var zero Stats
	if zero.Utilization() != 0 || zero.EffectiveProcessors() != 0 {
		t.Error("zero stats should report zeros")
	}
}

func TestCustomModel(t *testing.T) {
	// A free bus model: everything is think time, no contention.
	free := bus.Model{Name: "free"}
	tr := workload.PingPong(1_000)
	s, txns, err := RunScheme("Dir0B", tr, Config{ThinkCycles: 1, Model: free})
	if err != nil {
		t.Fatal(err)
	}
	if txns != 0 || s.BusBusy != 0 {
		t.Errorf("free model should produce no transactions: %d, %v", txns, s.BusBusy)
	}
}
