package engine

import (
	"bytes"
	"context"
	"strings"
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
// the observability wiring: per uncached trace the journal must hold
// exactly one generation span (trace.generate, under either executor),
// and the observer exactly one simulation span per walk, none of them
// cache hits — Dir0B and WTI one family walk and Dragon a walk of one —
// and no other job: a generation is no job, and a merge is a sum in the
// caller. No job names a key.
func TestObserverSeesGenerationAndSimulationSpans(t *testing.T) {
	schemes := []string{"Dir0B", "WTI", "Dragon"}
	cfgs := []workload.Config{workload.POPSConfig(4, 10_000)}

	for _, exec := range []Executor{Parallel{Workers: 4}, Sequential{}} {
		t.Run(exec.Name(), func(t *testing.T) {
			o := &testObserver{}
			e := New(Options{Observer: o})
			var buf bytes.Buffer
			if _, err := e.Compare(journaled(&buf, ""), exec, schemes, cfgs, false); err != nil {
				t.Fatal(err)
			}

			gens := withMsg(journalLines(t, buf.Bytes()), "trace.generate")
			if len(gens) != 1 || gens[0]["name"] != "generate:pops" {
				t.Errorf("generation spans = %v, want one generate:pops", gens)
			}
			byKind := o.finishedByKind()
			sims := byKind["sim"]
			if len(sims) != 2 {
				t.Errorf("simulation spans = %d, want 2", len(sims))
			}
			for _, r := range sims {
				if r.cacheHit {
					t.Errorf("uncached simulation %s flagged as cache hit", r.id)
				}
				if r.key != "" {
					t.Errorf("simulation %s has key %q, want none", r.id, r.key)
				}
				if r.err != nil {
					t.Errorf("simulation %s finished with error: %v", r.id, r.err)
				}
			}
			if len(byKind) != 1 {
				t.Errorf("job kinds = %v, want sim alone", byKind)
			}
			if s := e.Stats(); s.SimsRun != 3 || s.Walks != 2 {
				t.Errorf("%d results from %d walks, want 3 from 2", s.SimsRun, s.Walks)
			}
			// The generation span carries real wall time.
			for _, g := range gens {
				if d, _ := g["dur_us"].(float64); d <= 0 {
					t.Errorf("generation span has no duration: %v", g)
				}
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
			buf.Reset()
			if _, err := e.Compare(journaled(&buf, ""), exec, schemes, cfgs, false); err != nil {
				t.Fatal(err)
			}
			if n := len(withMsg(journalLines(t, buf.Bytes()), "trace.generate")); n != 0 {
				t.Errorf("cached rerun regenerated the trace (%d generation spans)", n)
			}
			for _, r := range o2.finishedByKind()["sim"] {
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
	} {
		if got := jobKind(id); got != want {
			t.Errorf("jobKind(%q) = %q, want %q", id, got, want)
		}
	}
}

// TestJobPhaseHistograms: every trace generation lands in
// engine.job.generate.us, every finished job in engine.job.simulate.us
// and every scheduled one in engine.jobs.scheduled, journal or not; a
// failed job's job.finish is journaled at error level with its cause.
func TestJobPhaseHistograms(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Options{Metrics: reg})
	cfgs := []workload.Config{workload.POPSConfig(4, 5_000)}
	if _, err := e.Compare(context.Background(), Parallel{Workers: 2},
		[]string{"Dir0B", "WTI", "Dragon"}, cfgs, false); err != nil {
		t.Fatal(err)
	}
	bad := SimSpec{Trace: unreachable(t, e), Scheme: "Dragon"}
	var buf bytes.Buffer
	if _, err := e.Results(journaled(&buf, ""), Sequential{}, []SimSpec{bad}); err == nil {
		t.Fatal("a spec over an unreachable trace succeeded")
	}
	// Dir0B and WTI are one family walk: one simulate job for the two. The
	// failed job is a simulate job too, and its failed generation a
	// generate span.
	for phase, want := range map[string]int64{"generate": 2, "simulate": 3} {
		if got := reg.Histogram("engine.job."+phase+".us", nil).Snapshot().Count; got != want {
			t.Errorf("engine.job.%s.us count = %d, want %d", phase, got, want)
		}
	}
	if got := reg.Counter("engine.jobs.scheduled").Value(); got != 3 {
		t.Errorf("engine.jobs.scheduled = %d, want 3", got)
	}
	lines := journalLines(t, buf.Bytes())
	var msgs []any
	for _, l := range lines {
		msgs = append(msgs, l["msg"])
	}
	if len(lines) != 4 || msgs[0] != "job.scheduled" || msgs[1] != "trace.generate" || msgs[2] != "job.start" || msgs[3] != "job.finish" {
		t.Fatalf("journal = %v", msgs)
	}
	want := "job " + bad.Name() + " failed: trace " + bad.Trace.Name + ": " + workload.ErrNotGenerable.Error()
	if l := lines[3]; l["level"] != "ERROR" || !strings.HasPrefix(l["error"].(string), want) || l["kind"] != "sim" || l["key"] != nil {
		t.Errorf("failed job.finish = %v, want error %q", l, want)
	}
}
