package obs

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"
)

// RunManifest records everything needed to understand (and re-run) one
// cmd/experiments invocation: the configuration and workload seeds, the
// per-experiment wall times, the engine's lifetime counters, the cache
// hit ratio, and the per-phase time breakdown.
type RunManifest struct {
	// Schema is the manifest format version (SchemaVersion at write
	// time); parsers branch on it to survive format changes.
	Schema  int    `json:"schema"`
	Command string `json:"command"`
	// Build is the binary's build identity (obs.Build): module version
	// plus embedded VCS revision.
	Build       string           `json:"build,omitempty"`
	Start       time.Time        `json:"start"`
	WallSeconds float64          `json:"wall_seconds"`
	Config      ManifestConfig   `json:"config"`
	Experiments []ExperimentRun  `json:"experiments"`
	Engine      map[string]int64 `json:"engine_counters"`
	// CacheHitRatio is hits / (hits + misses) over the engine's keyed
	// lookups; 0 when the run performed none.
	CacheHitRatio float64     `json:"cache_hit_ratio"`
	Phases        []PhaseStat `json:"phases"`
	// Store records the durable second-tier store's activity, when the
	// run used one (-store).
	Store *ManifestStore `json:"store,omitempty"`
}

// PhaseStat is the accumulated time of one phase of a run: "generate",
// "simulate" and "merge" from the engine's engine.job.<phase>.us
// histograms, "experiment" from the report pipeline's own timing.
type PhaseStat struct {
	Phase string        `json:"phase"`
	Count int64         `json:"count"`
	Total time.Duration `json:"total_ns"`
}

// PhaseBreakdown reads a run's per-phase time off reg: one PhaseStat per
// engine.job.<phase>.us histogram that saw a job, plus extra, largest
// total first (ties by name, so the order is deterministic).
func PhaseBreakdown(reg *Registry, extra ...PhaseStat) []PhaseStat {
	ps := extra
	for name, h := range reg.Snapshot().Histograms {
		if phase, ok := strings.CutPrefix(name, "engine.job."); ok && h.Count > 0 {
			ps = append(ps, PhaseStat{Phase: strings.TrimSuffix(phase, ".us"),
				Count: h.Count, Total: time.Duration(h.Sum) * time.Microsecond})
		}
	}
	slices.SortFunc(ps, func(a, b PhaseStat) int {
		return cmp.Or(cmp.Compare(b.Total, a.Total), strings.Compare(a.Phase, b.Phase))
	})
	return ps
}

// ManifestStore is the durable store's view of the run: how much was
// served from disk (hits), what was computed and written through
// (misses, writes), and how many entries failed integrity revalidation
// (rejected). Entries/Bytes describe the store after the run.
type ManifestStore struct {
	Dir       string `json:"dir"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	Hits      int64  `json:"hits"`
	Misses    int64  `json:"misses"`
	Rejected  int64  `json:"rejected"`
	Writes    int64  `json:"writes"`
	Evictions int64  `json:"evictions,omitempty"`
}

// ManifestConfig is the run's input configuration.
type ManifestConfig struct {
	Run      string            `json:"run"`
	Refs     int               `json:"refs"`
	CPUs     int               `json:"cpus"`
	Check    bool              `json:"check"`
	Parallel int               `json:"parallel"`
	Executor string            `json:"executor"`
	Seeds    map[string]uint64 `json:"seeds,omitempty"`
	// Faults is the fault-injection spec the run was executed under and
	// FaultSeed the seed driving its schedule; both empty/zero for clean
	// runs. Together they make a fault run reproducible: the same spec
	// and seed replay the identical fault schedule.
	Faults    string `json:"faults,omitempty"`
	FaultSeed uint64 `json:"fault_seed,omitempty"`
	// Trace is the execution-trace output path (-trace) and Listen the
	// HTTP monitor address (-listen); empty when off. ProtoSample is the
	// protocol-telemetry sampling stride (0 = off).
	Trace       string `json:"trace,omitempty"`
	Listen      string `json:"listen,omitempty"`
	ProtoSample int    `json:"proto_sample,omitempty"`
}

// ExperimentRun is one experiment's outcome.
type ExperimentRun struct {
	ID      string  `json:"id"`
	Seconds float64 `json:"seconds"`
	Error   string  `json:"error,omitempty"`
}

// HitRatio computes hits / (hits + misses), zero when there were no
// lookups.
func HitRatio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// Write serializes the manifest as indented JSON to path; "-" selects
// standard output.
func (m *RunManifest) Write(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: manifest: %w", err)
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("obs: manifest: %w", err)
	}
	return nil
}
