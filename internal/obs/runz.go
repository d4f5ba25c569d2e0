package obs

import (
	"bytes"
	"encoding/json"
	"time"
)

// RunzReport is the JSON served on /runz: run progress plus the derived
// throughput figures a dashboard wants without scraping raw counters.
type RunzReport struct {
	Schema    int       `json:"schema"`
	Now       time.Time `json:"now"`
	UptimeSec float64   `json:"uptime_seconds"`

	Experiments []RunzExperiment `json:"experiments"`
	Running     int              `json:"running"`
	Done        int              `json:"done"`
	Failed      int              `json:"failed"`

	// CacheHitRatio is hits/(hits+misses) over the engine's keyed
	// lookups so far; RefsPerSec is simulated references over uptime.
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	RefsSimulated int64   `json:"refs_simulated"`
	RefsPerSec    float64 `json:"refs_per_sec"`
	SimsRun       int64   `json:"sims_run"`
	JobsRun       int64   `json:"jobs_run"`
}

// RunzExperiment is one experiment's live state.
type RunzExperiment struct {
	ID      string  `json:"id"`
	Title   string  `json:"title,omitempty"`
	State   string  `json:"state"`
	Seconds float64 `json:"seconds"`
	Error   string  `json:"error,omitempty"`
}

// experimentMsg starts the "msg" of every experiment.* journal line, as
// slog's JSON handler writes it.
var experimentMsg = []byte(`"msg":"experiment.`)

// Runz assembles the /runz view of a run that started at start from its
// journal record and its registry (which may be nil). Each
// experiment.start line opens an experiment, named by its "name" and
// "title"; its experiment.finish line closes it, failed when the line
// carries an error. Throughput and cache figures come from the engine
// counters on reg. Safe to call while the run writes both.
func Runz(rec *Record, reg *Registry, start time.Time) RunzReport {
	now := Now()
	rep := RunzReport{Schema: SchemaVersion, Now: now, UptimeSec: now.Sub(start).Seconds()}
	lines, _, _ := rec.Follow(0)
	index := make(map[string]int)
	for _, raw := range lines {
		// Experiment lines are a few dozen of a run's thousands (jobs,
		// simulations, protocol samples): only they are decoded.
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
			rep.Experiments = append(rep.Experiments, RunzExperiment{ID: l.Name, Title: l.Title,
				State: "running", Seconds: now.Sub(l.Time).Seconds()})
		case "experiment.finish":
			i, ok := index[l.Name]
			if !ok {
				continue
			}
			e := &rep.Experiments[i]
			e.State, e.Seconds = "done", time.Duration(l.DurUS*1e3).Seconds()
			if l.Error != nil {
				e.State, e.Error = "failed", *l.Error
			}
		}
	}
	for _, e := range rep.Experiments {
		switch e.State {
		case "running":
			rep.Running++
		case "failed":
			rep.Failed++
		default:
			rep.Done++
		}
	}
	if reg != nil {
		snap := reg.Snapshot()
		rep.CacheHitRatio = HitRatio(snap.Counters["engine.cache.hits"], snap.Counters["engine.cache.misses"])
		rep.RefsSimulated = snap.Counters["engine.refs.simulated"]
		rep.SimsRun = snap.Counters["engine.sims.run"]
		rep.JobsRun = snap.Counters["engine.jobs.run"]
		if rep.UptimeSec > 0 {
			rep.RefsPerSec = float64(rep.RefsSimulated) / rep.UptimeSec
		}
	}
	return rep
}
