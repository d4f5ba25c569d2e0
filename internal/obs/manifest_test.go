package obs

import (
	"bytes"
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
	m := &RunManifest{
		Command:       "experiments",
		WallSeconds:   1.5,
		Config:        ManifestConfig{Run: "all", Refs: 400000, CPUs: 4, Parallel: 8, Executor: "parallel"},
		Experiments:   []ExperimentRun{{ID: "table4", Seconds: 0.8}},
		Engine:        map[string]int64{"engine.cache.hits": 10},
		CacheHitRatio: 0.5,
		Phases:        []PhaseStat{{Phase: "simulate", Count: 4, Total: time.Second}},
	}
	if err := m.Write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back RunManifest
	if err := unmarshalStrict(data, &back); err != nil {
		t.Fatalf("manifest does not round-trip: %v", err)
	}
	if back.Config.Run != "all" || back.Experiments[0].ID != "table4" ||
		back.Engine["engine.cache.hits"] != 10 || back.Phases[0].Phase != "simulate" {
		t.Errorf("round-tripped manifest wrong: %+v", back)
	}
}

// TestRecorderSpan pins how an experiment span is recorded: a journaled
// experiment.start / experiment.finish pair carrying the experiment's
// name, and its timing merged by PhaseBreakdown into the run's phases
// beside the engine's engine.job.<phase>.us histograms.
func TestRecorderSpan(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	start := time.Now()
	j.Event("experiment.start", "name", "table4")
	d := time.Since(start)
	j.Event("experiment.finish", "name", "table4", "dur_us", d.Microseconds())
	if d < 0 {
		t.Errorf("span duration negative: %v", d)
	}
	events := decodeLines(t, buf.Bytes())
	if len(events) != 2 || events[0]["msg"] != "experiment.start" ||
		events[1]["msg"] != "experiment.finish" || events[1]["name"] != "table4" {
		t.Errorf("span events wrong: %v", events)
	}

	reg := NewRegistry()
	reg.Histogram("engine.job.simulate.us", DurationBucketsUS).Observe(3)
	reg.Histogram("engine.job.merge.us", DurationBucketsUS) // saw no job
	ph := PhaseBreakdown(reg, PhaseStat{Phase: "experiment", Count: 1, Total: time.Second})
	if len(ph) != 2 || ph[0].Phase != "experiment" || ph[0].Count != 1 ||
		ph[1].Phase != "simulate" || ph[1].Count != 1 || ph[1].Total != 3*time.Microsecond {
		t.Errorf("phases = %v", ph)
	}
}
