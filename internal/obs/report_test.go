package obs

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestHitRatio(t *testing.T) {
	if got := HitRatio(0, 0); got != 0 {
		t.Errorf("HitRatio(0,0) = %v", got)
	}
	if got := HitRatio(3, 1); got != 0.75 {
		t.Errorf("HitRatio(3,1) = %v", got)
	}
}

func TestManifestWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.json")
	r := RunReport{
		Command:       "experiments",
		WallSeconds:   1.5,
		Config:        RunConfig{Run: "all", Refs: 400000, CPUs: 4, Parallel: 8, Executor: "parallel", Store: "cache"},
		Experiments:   []ExperimentReport{{ID: "table4", State: "done", Seconds: 0.8}},
		Counters:      map[string]int64{"engine.cache.hits": 10},
		Gauges:        map[string]int64{"store.entries": 3},
		CacheHitRatio: 0.5,
		Phases:        []PhaseStat{{Phase: "simulate", Count: 4, Total: time.Second}},
	}
	if err := r.Write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back RunReport
	if err := unmarshalStrict(data, &back); err != nil {
		t.Fatalf("manifest does not round-trip: %v", err)
	}
	if back.Config.Run != "all" || back.Config.Store != "cache" || back.Experiments[0].ID != "table4" ||
		back.Counters["engine.cache.hits"] != 10 || back.Gauges["store.entries"] != 3 ||
		back.Phases[0].Phase != "simulate" {
		t.Errorf("round-tripped manifest wrong: %+v", back)
	}
}

// TestRecorderSpan pins how an experiment span is recorded: a journaled
// experiment.start / experiment.finish pair carrying the experiment's
// name, and its timing merged by Report into the run's phases beside
// the engine's engine.job.<phase>.us histograms.
func TestRecorderSpan(t *testing.T) {
	var rec Record
	j := NewJournal(&rec)
	start := time.Now()
	j.Event("experiment.start", "name", "table4")
	j.Event("experiment.finish", "name", "table4", "dur_us", 1_000_000)
	events := decodeLines(t, rec.Bytes())
	if len(events) != 2 || events[0]["msg"] != "experiment.start" ||
		events[1]["msg"] != "experiment.finish" || events[1]["name"] != "table4" {
		t.Errorf("span events wrong: %v", events)
	}

	reg := NewRegistry()
	reg.Histogram("engine.job.simulate.us", DurationBucketsUS).Observe(3)
	reg.Histogram("engine.job.merge.us", DurationBucketsUS) // saw no job
	ph := Report(&rec, reg, start).Phases
	if len(ph) != 2 || ph[0].Phase != "experiment" || ph[0].Count != 1 || ph[0].Total != time.Second ||
		ph[1].Phase != "simulate" || ph[1].Count != 1 || ph[1].Total != 3*time.Microsecond {
		t.Errorf("phases = %v", ph)
	}
}

// TestReportWithoutRecord: a process that keeps no journal record
// (dirsimd) still reports every counter and gauge, the cache ratio and
// the engine phases, and lists no experiment.
func TestReportWithoutRecord(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("engine.cache.hits").Add(1)
	reg.Counter("engine.cache.misses").Add(3)
	reg.Counter("store.hits").Add(2)
	reg.Gauge("store.bytes").Set(4096)
	reg.Histogram("engine.job.generate.us", DurationBucketsUS).Observe(5)
	rep := Report(nil, reg, Now().Add(-time.Second))
	if rep.Schema != SchemaVersion || rep.WallSeconds < 1 || len(rep.Experiments) != 0 {
		t.Errorf("report = %+v", rep)
	}
	if rep.Counters["store.hits"] != 2 || rep.Gauges["store.bytes"] != 4096 || rep.CacheHitRatio != 0.25 {
		t.Errorf("instruments = %v / %v, ratio %g", rep.Counters, rep.Gauges, rep.CacheHitRatio)
	}
	if len(rep.Phases) != 1 || rep.Phases[0].Phase != "generate" {
		t.Errorf("phases = %v", rep.Phases)
	}
	if rep.RefsPerSec != 0 {
		t.Errorf("refs/s = %g with no simulated reference", rep.RefsPerSec)
	}
}
