package sim

import (
	"runtime"
	"strings"
	"testing"

	"dirsim/internal/bus"
	"dirsim/internal/core"
	"dirsim/internal/event"
	"dirsim/internal/trace"
	"dirsim/internal/workload"
)

func TestSimulateTraceBasics(t *testing.T) {
	tr := workload.PingPong(1000)
	res, err := SimulateTrace("Dir0B", tr, Options{Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != "Dir0B" || res.Trace != "pingpong" {
		t.Errorf("identity wrong: %s/%s", res.Scheme, res.Trace)
	}
	if res.Counts.Total != int64(tr.Len()) {
		t.Errorf("counted %d refs of %d", res.Counts.Total, tr.Len())
	}
	// Both default models priced.
	if res.Tally("pipelined") == nil || res.Tally("non-pipelined") == nil {
		t.Fatal("default models missing")
	}
	if res.Tally("nope") != nil {
		t.Error("unknown model should be nil")
	}
	if res.PerRef("pipelined") <= 0 {
		t.Error("pingpong must cost cycles")
	}
	if res.PerRef("nope") != 0 {
		t.Error("unknown model PerRef should be 0")
	}
}

func TestSimulateUnknownScheme(t *testing.T) {
	if _, err := SimulateTrace("MOESI", workload.PingPong(10), Options{}); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestSimulateCPUCountMismatch(t *testing.T) {
	p, err := core.NewByName("Dir0B", 2)
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.Migratory(4, 2, 10) // 4 CPUs
	if _, err := Simulate(p, tr.Iterator(), Options{}); err == nil {
		t.Error("engine smaller than trace accepted")
	}
	// An engine larger than the trace is fine.
	p8, _ := core.NewByName("Dir0B", 8)
	if _, err := Simulate(p8, tr.Iterator(), Options{}); err != nil {
		t.Errorf("larger engine rejected: %v", err)
	}
}

func TestSimulateCustomModel(t *testing.T) {
	m := bus.Pipelined()
	m.Name, m.Q = "q1", 1
	res, err := SimulateTrace("Dir0B", workload.PingPong(1000), Options{Models: []bus.Model{m}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally("q1") == nil || res.Tally("pipelined") != nil {
		t.Error("custom model list not honoured")
	}
}

func TestResultHistograms(t *testing.T) {
	// Producer-consumer: each round's write finds cpus-1 clean copies.
	tr := workload.ProducerConsumer(4, 4, 20)
	res, err := SimulateTrace("Dir0B", tr, Options{Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.InvalClean.Total() == 0 {
		t.Fatal("no writes to clean blocks observed")
	}
	// From round 2 on, every write sees 3 remote holders.
	if res.InvalClean.Buckets[3] == 0 {
		t.Errorf("expected 3-holder invalidations: %v", res.InvalClean.Buckets)
	}
	if res.Broadcasts == 0 {
		t.Error("Dir0B should have broadcast invalidations")
	}
}

func TestWriteBackCounting(t *testing.T) {
	tr := workload.PingPong(1000)
	res, err := SimulateTrace("DirNNB", tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.WriteBacks == 0 {
		t.Error("migratory pattern must cause write-backs")
	}
	if res.SeqInvals == 0 {
		t.Error("DirNNB sends directed invalidations")
	}
	if res.Broadcasts != 0 {
		t.Error("DirNNB must not broadcast")
	}
}

func TestMerge(t *testing.T) {
	a, err := SimulateTrace("Dir0B", workload.PingPong(500), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateTrace("Dir0B", workload.Migratory(2, 4, 50), Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Counts.Total != a.Counts.Total+b.Counts.Total {
		t.Error("merged totals wrong")
	}
	if !strings.Contains(m.Trace, "+") {
		t.Errorf("merged trace name %q", m.Trace)
	}
	wantCycles := a.Tally("pipelined").Cycles.Total() + b.Tally("pipelined").Cycles.Total()
	if got := m.Tally("pipelined").Cycles.Total(); got != wantCycles {
		t.Errorf("merged cycles %v, want %v", got, wantCycles)
	}
}

func TestMergeErrors(t *testing.T) {
	if _, err := Merge(); err == nil {
		t.Error("empty merge accepted")
	}
	a, _ := SimulateTrace("Dir0B", workload.PingPong(100), Options{})
	b, _ := SimulateTrace("Dragon", workload.PingPong(100), Options{})
	if _, err := Merge(a, b); err == nil {
		t.Error("cross-scheme merge accepted")
	}
}

func TestMergeOverTraces(t *testing.T) {
	var per []*Result
	for _, tr := range []*trace.Trace{workload.PingPong(400), workload.Migratory(2, 4, 40)} {
		r, err := SimulateTrace("Dragon", tr, Options{Check: true})
		if err != nil {
			t.Fatal(err)
		}
		per = append(per, r)
	}
	merged, err := Merge(per...)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Counts.Total != per[0].Counts.Total+per[1].Counts.Total {
		t.Error("merge totals wrong")
	}
}

func TestRecordClassification(t *testing.T) {
	var r Result
	r.Tallies = map[string]*bus.Tally{}
	var classes classTable
	for _, out := range []event.Result{
		{Type: event.WrHitClean, Holders: 2, Broadcast: true},
		{Type: event.WrMissClean, Holders: 0},
		{Type: event.RdMissDirty, Holders: 1, WriteBack: true},
		{Type: event.WrHitShared, Holders: 3, Broadcast: true, Update: true},
	} {
		r.record(&out, 1, &classes)
	}
	if r.InvalClean.Total() != 2 {
		t.Errorf("InvalClean observed %d events, want 2", r.InvalClean.Total())
	}
	if r.HoldersAtInval.Total() != 3 {
		t.Errorf("HoldersAtInval observed %d events, want 3", r.HoldersAtInval.Total())
	}
	if r.Broadcasts != 1 {
		t.Errorf("Broadcasts = %d, want 1 (updates excluded)", r.Broadcasts)
	}
	if r.WriteBacks != 1 {
		t.Errorf("WriteBacks = %d", r.WriteBacks)
	}
}

func TestCheckRejectsUncheckableEngine(t *testing.T) {
	// All bundled engines support checking; verify the error path with a
	// stub.
	p := stubProtocol{}
	if _, err := Simulate(p, workload.PingPong(10).Iterator(), Options{Check: true}); err == nil {
		t.Error("uncheckable engine accepted with Check set")
	}
}

type stubProtocol struct{}

func (stubProtocol) Name() string                  { return "stub" }
func (stubProtocol) CPUs() int                     { return 64 }
func (stubProtocol) Access(trace.Ref) event.Result { return event.Result{} }
func (stubProtocol) CheckInvariants() error        { return nil }

// TestFiniteCacheFootprint bounds what a large finite cache costs a
// simulation. Its caches used to make every set header on first use:
// about 385 MB for 64 of FiniteDirNNB:4m1w's 262144-set caches, though a
// short trace touches a few thousand sets. Headers are paged now, so
// memory follows the sets touched; the run must still give the parent's
// fingerprint and miss causes.
func TestFiniteCacheFootprint(t *testing.T) {
	tr := workload.POPS(64, 20_000)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r, err := SimulateTrace("FiniteDirNNB:4m1w", tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 32<<20 {
		t.Errorf("simulation allocated %d MB, limit 32 MB", grown>>20)
	}
	const want = 0x6cf3df7a05ceecb7
	if fp := r.Fingerprint(); fp != want || r.ColdMisses != 167 || r.CoherenceMisses != 43 || r.CapacityMisses != 0 {
		t.Errorf("fingerprint %016x, causes %d/%d/%d; want %016x, 167/43/0",
			fp, r.ColdMisses, r.CoherenceMisses, r.CapacityMisses, uint64(want))
	}
}
