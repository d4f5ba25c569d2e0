package engine

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"dirsim/internal/obs"
	"dirsim/internal/workload"
)

// jobRecord is one observed lifecycle event.
type jobRecord struct {
	id, kind, key string
	dur           time.Duration
	cacheHit      bool
	err           error
}

// testObserver records every notification, for assertions.
type testObserver struct {
	mu        sync.Mutex
	scheduled []jobRecord
	started   []jobRecord
	finished  []jobRecord
}

func (o *testObserver) JobScheduled(_ context.Context, id, kind, key string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.scheduled = append(o.scheduled, jobRecord{id: id, kind: kind, key: key})
}

func (o *testObserver) JobStarted(_ context.Context, id, kind, key string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.started = append(o.started, jobRecord{id: id, kind: kind, key: key})
}

func (o *testObserver) JobFinished(_ context.Context, id, kind, key string, d time.Duration, cacheHit bool, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.finished = append(o.finished, jobRecord{id: id, kind: kind, key: key, dur: d, cacheHit: cacheHit, err: err})
}

func (o *testObserver) finishedByKind() map[string][]jobRecord {
	o.mu.Lock()
	defer o.mu.Unlock()
	m := map[string][]jobRecord{}
	for _, r := range o.finished {
		m[r.kind] = append(m[r.kind], r)
	}
	return m
}

// TestObserverSeesGenerationAndSimulationSpans is the integration test of
// the observability wiring: per uncached trace the observer must see
// exactly one generation span (a trace job, under either executor) and
// exactly one simulation span per walk, none of them cache hits — Dir0B
// and WTI one family walk, unkeyed, and Dragon its own keyed job.
func TestObserverSeesGenerationAndSimulationSpans(t *testing.T) {
	schemes := []string{"Dir0B", "WTI", "Dragon"}
	cfgs := []workload.Config{workload.POPSConfig(4, 10_000)}

	for _, exec := range []Executor{Parallel{Workers: 4}, Sequential{}} {
		t.Run(exec.Name(), func(t *testing.T) {
			o := &testObserver{}
			e := New(Options{Observer: o})
			if _, err := e.Compare(context.Background(), exec, schemes, cfgs, false); err != nil {
				t.Fatal(err)
			}

			byKind := o.finishedByKind()
			if got := len(byKind["trace"]); got != 1 {
				t.Errorf("generation (trace) spans = %d, want 1; finished: %v", got, byKind)
			}
			sims := byKind["sim"]
			if len(sims) != 2 {
				t.Errorf("simulation spans = %d, want 2", len(sims))
			}
			for _, r := range sims {
				if r.cacheHit {
					t.Errorf("uncached simulation %s flagged as cache hit", r.id)
				}
				if want := r.id != "sim:Dir0B+WTI@pops"; (r.key != "") != want {
					t.Errorf("simulation %s has key %q, want one: %t", r.id, r.key, want)
				}
				if r.err != nil {
					t.Errorf("simulation %s finished with error: %v", r.id, r.err)
				}
			}
			if len(byKind["merge"]) != len(schemes) {
				t.Errorf("merge spans = %d, want %d", len(byKind["merge"]), len(schemes))
			}
			if s := e.Stats(); s.SimsRun != 3 || s.Walks != 2 {
				t.Errorf("%d results from %d walks, want 3 from 2", s.SimsRun, s.Walks)
			}
			// The generation span carries real wall time.
			if len(byKind["trace"]) == 1 && byKind["trace"][0].dur <= 0 {
				t.Errorf("generation span has no duration: %+v", byKind["trace"][0])
			}

			// Every started job finishes, and nothing starts unscheduled.
			o.mu.Lock()
			ns, nf, nsch := len(o.started), len(o.finished), len(o.scheduled)
			o.mu.Unlock()
			if ns != nf {
				t.Errorf("started %d jobs but finished %d", ns, nf)
			}
			if nsch < ns {
				t.Errorf("scheduled %d jobs but started %d", nsch, ns)
			}

			// A second identical batch is served from cache: no new
			// generation, every simulation span a cache hit.
			o2 := &testObserver{}
			e.obs = o2
			if _, err := e.Compare(context.Background(), exec, schemes, cfgs, false); err != nil {
				t.Fatal(err)
			}
			byKind2 := o2.finishedByKind()
			if n := len(byKind2["trace"]); n != 0 {
				t.Errorf("cached rerun regenerated the trace (%d generation spans)", n)
			}
			for _, r := range byKind2["sim"] {
				if !r.cacheHit {
					t.Errorf("cached rerun simulation %s not flagged as cache hit", r.id)
				}
			}
		})
	}
}

// TestObserverCountersMatchStats cross-checks the registry-backed
// counters against the Stats snapshot and the shared-registry option.
func TestObserverCountersMatchStats(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Options{Metrics: reg})
	cfgs := []workload.Config{workload.POPSConfig(4, 8_000)}
	if _, err := e.Merge(context.Background(), Sequential{}, [][]SimSpec{over("Dir0B", cfgs, false)}); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.SimsRun != reg.Counter("engine.sims.run").Value() {
		t.Errorf("Stats.SimsRun %d != registry %d", s.SimsRun, reg.Counter("engine.sims.run").Value())
	}
	if s.CacheMisses != reg.Counter("engine.cache.misses").Value() {
		t.Errorf("Stats.CacheMisses %d != registry %d", s.CacheMisses,
			reg.Counter("engine.cache.misses").Value())
	}
	if e.reg != reg {
		t.Error("Metrics() does not return the shared registry")
	}
}

func TestJobKind(t *testing.T) {
	for id, want := range map[string]string{
		"sim:Dir0B@pops": "sim",
		"trace:pops":     "trace",
		"merge:Dir0B":    "merge",
	} {
		if got := jobKind(id); got != want {
			t.Errorf("jobKind(%q) = %q, want %q", id, got, want)
		}
	}
}

// TestJobPhaseHistograms: every finished job lands in its phase's
// engine.job.<phase>.us histogram and every scheduled one in
// engine.jobs.scheduled, journal or not; a failed job's job.finish is
// journaled at error level with its cause.
func TestJobPhaseHistograms(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Options{Metrics: reg})
	cfgs := []workload.Config{workload.POPSConfig(4, 5_000)}
	if _, err := e.Compare(context.Background(), Parallel{Workers: 2},
		[]string{"Dir0B", "WTI", "Dragon"}, cfgs, false); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	bad := &job{ID: "merge:bad", Run: func(context.Context, []any) (any, error) {
		return nil, errors.New("boom")
	}}
	if err := e.execute(journaled(&buf, ""), Sequential{}, bad); err != nil {
		t.Fatal(err)
	}
	// Dir0B and WTI are one family walk: one simulate job for the two.
	for phase, want := range map[string]int64{"generate": 1, "simulate": 2, "merge": 4} {
		if got := reg.Histogram("engine.job."+phase+".us", nil).Snapshot().Count; got != want {
			t.Errorf("engine.job.%s.us count = %d, want %d", phase, got, want)
		}
	}
	if got := reg.Counter("engine.jobs.scheduled").Value(); got != 7 {
		t.Errorf("engine.jobs.scheduled = %d, want 7", got)
	}
	lines := journalLines(t, buf.Bytes())
	var msgs []any
	for _, l := range lines {
		msgs = append(msgs, l["msg"])
	}
	if len(lines) != 3 || msgs[0] != "job.scheduled" || msgs[1] != "job.start" || msgs[2] != "job.finish" {
		t.Fatalf("journal = %v", msgs)
	}
	if lines[2]["level"] != "ERROR" || lines[2]["error"] != "job merge:bad failed: boom" || lines[2]["kind"] != "merge" {
		t.Errorf("failed job.finish = %v", lines[2])
	}
}
