package obs

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"
)

// RunReport is the one account of a run: what it was asked to do, each
// experiment's state and time, and every counter and gauge on its
// registry. /runz serves it while the run goes, -manifest writes its
// final value, and cmd/experiments' stderr summary renders that value.
// Report builds it; the caller fills in Command, Build and Config.
type RunReport struct {
	// Schema is the format version (SchemaVersion at build time);
	// parsers branch on it to survive format changes.
	Schema  int    `json:"schema"`
	Command string `json:"command"`
	// Build is the binary's build identity (obs.Build): module version
	// plus embedded VCS revision.
	Build       string             `json:"build,omitempty"`
	Start       time.Time          `json:"start"`
	WallSeconds float64            `json:"wall_seconds"`
	Config      RunConfig          `json:"config"`
	Experiments []ExperimentReport `json:"experiments"`
	// Counters and Gauges are every instrument of those kinds on the
	// registry: the engine's, the store's (store.hits, store.entries, ...)
	// and the service's alike.
	Counters map[string]int64 `json:"engine_counters"`
	Gauges   map[string]int64 `json:"gauges"`
	// CacheHitRatio is hits / (hits + misses) over the engine's keyed
	// lookups, 0 when there were none; RefsPerSec is simulated references
	// over the wall time.
	CacheHitRatio float64     `json:"cache_hit_ratio"`
	RefsPerSec    float64     `json:"refs_per_sec"`
	Phases        []PhaseStat `json:"phases"`
}

// RunConfig is the run's input configuration.
type RunConfig struct {
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
	// HTTP monitor address (-listen); empty when off. Store is the
	// durable result store's directory (-store), empty without one.
	Trace  string `json:"trace,omitempty"`
	Listen string `json:"listen,omitempty"`
	Store  string `json:"store,omitempty"`
}

// ExperimentReport is one experiment's state: "running" with the time
// since it started, or "done" or "failed" with its duration.
type ExperimentReport struct {
	ID      string  `json:"id"`
	Title   string  `json:"title,omitempty"`
	State   string  `json:"state"`
	Seconds float64 `json:"seconds"`
	Error   string  `json:"error,omitempty"`
}

// PhaseStat is the accumulated time of one phase of a run: "generate"
// and "simulate" from the engine's engine.job.<phase>.us histograms,
// "experiment" from the record's finished experiments.
type PhaseStat struct {
	Phase string        `json:"phase"`
	Count int64         `json:"count"`
	Total time.Duration `json:"total_ns"`
}

// experimentMsg starts the "msg" of every experiment.* journal line, as
// slog's JSON handler writes it.
var experimentMsg = []byte(`"msg":"experiment.`)

// Report accounts for the run that started at start from its journal
// record (nil when it keeps none) and its registry. Each
// experiment.start line opens an experiment, named by its "name" and
// "title"; its experiment.finish line closes it, failed when the line
// carries an error, and adds its dur_us to the "experiment" phase.
// Experiments are listed in the order they started. Safe to call while
// the run writes both.
func Report(rec *Record, reg *Registry, start time.Time) RunReport {
	now := Now()
	wall := now.Sub(start).Seconds()
	rep := RunReport{Schema: SchemaVersion, Start: start, WallSeconds: wall}
	var lines [][]byte
	if rec != nil {
		lines, _, _ = rec.Follow(0)
	}
	exp := PhaseStat{Phase: "experiment"}
	index := make(map[string]int)
	for _, raw := range lines {
		// Experiment lines are a few dozen of a run's thousands (jobs,
		// simulations, store traffic): only they are decoded.
		if !bytes.Contains(raw, experimentMsg) {
			continue
		}
		var l struct {
			Time             time.Time
			Msg, Name, Title string
			Error            *string
			DurUS            int64 `json:"dur_us"`
		}
		if json.Unmarshal(raw, &l) != nil {
			continue
		}
		switch l.Msg {
		case "experiment.start":
			index[l.Name] = len(rep.Experiments)
			rep.Experiments = append(rep.Experiments, ExperimentReport{ID: l.Name, Title: l.Title,
				State: "running", Seconds: now.Sub(l.Time).Seconds()})
		case "experiment.finish":
			i, ok := index[l.Name]
			if !ok {
				continue
			}
			d := time.Duration(l.DurUS) * time.Microsecond
			e := &rep.Experiments[i]
			e.State, e.Seconds = "done", d.Seconds()
			if l.Error != nil {
				e.State, e.Error = "failed", *l.Error
			}
			exp.Count++
			exp.Total += d
		}
	}

	snap := reg.Snapshot()
	rep.Counters, rep.Gauges = snap.Counters, snap.Gauges
	rep.CacheHitRatio = HitRatio(snap.Counters["engine.cache.hits"], snap.Counters["engine.cache.misses"])
	if wall > 0 {
		rep.RefsPerSec = float64(snap.Counters["engine.refs.simulated"]) / wall
	}
	if exp.Count > 0 {
		rep.Phases = append(rep.Phases, exp)
	}
	for name, h := range snap.Histograms {
		if phase, ok := strings.CutPrefix(name, "engine.job."); ok && h.Count > 0 {
			rep.Phases = append(rep.Phases, PhaseStat{Phase: strings.TrimSuffix(phase, ".us"),
				Count: h.Count, Total: time.Duration(h.Sum) * time.Microsecond})
		}
	}
	// Largest total first, ties by name, so the order is deterministic.
	slices.SortFunc(rep.Phases, func(a, b PhaseStat) int {
		return cmp.Or(cmp.Compare(b.Total, a.Total), strings.Compare(a.Phase, b.Phase))
	})
	return rep
}

// HitRatio computes hits / (hits + misses), zero when there were no
// lookups.
func HitRatio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// Write serializes the report as indented JSON to path; "-" selects
// standard output.
func (r RunReport) Write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: report: %w", err)
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("obs: report: %w", err)
	}
	return nil
}
