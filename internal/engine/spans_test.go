package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"dirsim/internal/obs"
	"dirsim/internal/sim"
	"dirsim/internal/workload"
)

// traceEvent mirrors the Chrome trace-event fields the acceptance
// criteria require: pid/tid/ph/ts/dur, plus name and the args map the
// exporter uses for parent links.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   *float64       `json:"ts"`
	Dur  *float64       `json:"dur"`
	PID  *int           `json:"pid"`
	TID  *int           `json:"tid"`
	ID   uint64         `json:"id"`
	Args map[string]any `json:"args"`
}

type traceFile struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

// renderTrace renders a journal as Chrome trace-event JSON, the way the
// CLIs' -trace and the service's /trace do, and decodes it.
func renderTrace(t *testing.T, journal []byte) traceFile {
	t.Helper()
	lines, _, err := obs.ReadJournal(bytes.NewReader(journal))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := obs.WriteChrome(&buf, lines); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var tf traceFile
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("rendered trace is not valid JSON: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
	return tf
}

type flakyErr struct{ n int }

func (e flakyErr) Error() string   { return fmt.Sprintf("transient failure %d", e.n) }
func (e flakyErr) Retryable() bool { return true }

// TestEngineTraceExport runs a real concurrent sweep — two generations,
// several schemes, plus a flaky walk job that needs two retries — under a
// traced journal, renders the journal, and validates the Chrome
// trace-event JSON end to end: required fields on every event, every
// generation, every scheduled job and every retry attempt represented as
// spans, and child spans contained within their parents' intervals.
func TestEngineTraceExport(t *testing.T) {
	e := New(Options{Retries: 2})

	cfgs := workload.StandardConfigs(4, 20_000)[:2]
	schemes := []string{"Dir0B", "Dir4NB", "WTI"}
	var journal bytes.Buffer
	ctx := journaled(&journal, "export")
	if _, err := e.Compare(ctx, Parallel{Workers: 4}, schemes, cfgs, false); err != nil {
		t.Fatalf("Compare: %v", err)
	}

	// A walk job whose Remote fails twice with a retryable error before
	// succeeding: the trace must show all three attempts plus two retry
	// instants.
	// The worker journals nothing of its own.
	worker, fails := New(Options{}), 0
	remote := remoteFunc(func(_ context.Context, specs []SimSpec) ([]*sim.Result, []error) {
		if fails < 2 {
			fails++
			return make([]*sim.Result, len(specs)), []error{flakyErr{n: fails}}
		}
		rs, err := worker.Results(context.Background(), Sequential{}, specs)
		return rs, []error{err}
	})
	flaky := SimSpec{Trace: cfgs[0], Scheme: "Dragon"}
	if _, err := New(Options{Retries: 2, Remote: remote}).Results(ctx, Sequential{}, []SimSpec{flaky}); err != nil {
		t.Fatalf("flaky job: %v", err)
	}

	tf := renderTrace(t, journal.Bytes())
	spans := map[uint64]traceEvent{}
	spanNames := map[string]int{}
	retryInstants := 0
	for _, ev := range tf.TraceEvents {
		if ev.PID == nil || ev.TID == nil || ev.Ph == "" || ev.TS == nil {
			t.Fatalf("event %q missing required field: %+v", ev.Name, ev)
		}
		switch ev.Ph {
		case "M":
			continue
		case "X":
			if ev.Dur == nil {
				t.Fatalf("complete event %q has no dur", ev.Name)
			}
			spans[ev.ID] = ev
			spanNames[ev.Name]++
		case "i":
			if ev.Name == "job.retry" {
				retryInstants++
			}
		default:
			t.Fatalf("unexpected phase %q on %q", ev.Ph, ev.Name)
		}
	}

	// Every generation and every scheduled job is represented as a span:
	// one generate:<workload> and one sim job per workload (the three
	// schemes are one family walk: Dir4NB at 4 CPUs is the full map), and
	// the flaky job.
	var wantJobs []string
	for _, cfg := range cfgs {
		wantJobs = append(wantJobs, "generate:"+cfg.Name,
			fmt.Sprintf("sim:%s@%s", strings.Join(schemes, "+"), cfg.Name))
	}
	wantJobs = append(wantJobs, flaky.Name())
	for _, id := range wantJobs {
		if spanNames[id] == 0 {
			t.Errorf("job %q has no span in the trace", id)
		}
	}

	// Every retry attempt is represented: the flaky job ran three
	// attempts (attempt:0 through attempt:2) and fired two retry
	// instants. Attempt spans also exist for every other executed job.
	for _, n := range []string{"generate:" + cfgs[0].Name, "generate:" + cfgs[1].Name} {
		if spanNames[n] != 1 {
			t.Errorf("%d %s spans, want 1", spanNames[n], n)
		}
	}
	if spanNames["attempt:0"] == 0 || spanNames["attempt:1"] == 0 || spanNames["attempt:2"] == 0 {
		t.Errorf("missing attempt spans: %v", spanNames)
	}
	if retryInstants != 2 {
		t.Errorf("got %d retry instants, want 2", retryInstants)
	}

	// Inside each sim job's attempt, the simulation itself is a span.
	for _, cfg := range cfgs {
		for _, s := range schemes {
			if spanNames[fmt.Sprintf("simulate:%s@%s", s, cfg.Name)] == 0 {
				t.Errorf("no simulate span for %s@%s", s, cfg.Name)
			}
		}
	}

	// Span nesting is consistent: every child with a same-row parent
	// lies within the parent's [ts, ts+dur] interval (small epsilon for
	// the ns→µs float conversion).
	const eps = 1e-3
	nested := 0
	for _, ev := range spans {
		pid, ok := ev.Args["parent"].(float64)
		if !ok {
			continue
		}
		p, ok := spans[uint64(pid)]
		if !ok {
			continue // parent is an instant
		}
		if *ev.TID != *p.TID {
			continue // cross-row parent: containment not required
		}
		nested++
		if *ev.TS < *p.TS-eps || *ev.TS+*ev.Dur > *p.TS+*p.Dur+eps {
			t.Errorf("span %q [%v, %v] escapes parent %q [%v, %v]",
				ev.Name, *ev.TS, *ev.TS+*ev.Dur, p.Name, *p.TS, *p.TS+*p.Dur)
		}
	}
	if nested == 0 {
		t.Error("no same-row parent/child span pairs found — nesting unverified")
	}

	// The simulations' coherence tallies landed on the engine registry.
	snap := e.reg.Snapshot()
	if snap.Counters["sim.proto.dir0b.clean_writes"] == 0 {
		t.Error("protocol counters absent after a traced sweep")
	}
	if h := snap.Histograms["sim.proto.dir0b.invals_clean_write"]; h.Count == 0 {
		t.Error("invalidation histogram empty after a traced sweep")
	}
	if snap.Counters["engine.refs.simulated"] == 0 {
		t.Error("engine.refs.simulated not counted")
	}
}

// TestWorkersBoundsOpenSimulations: a pool of n slots means at most n
// job bodies run at once, simulations included — six schemes over one
// workload, four of them one family walk, never have a second walk open
// under Sequential, or a third under Parallel{Workers: 2}. The simulate
// spans of one walk share its attempt span as their parent.
func TestWorkersBoundsOpenSimulations(t *testing.T) {
	for _, exec := range []Executor{Sequential{}, Parallel{Workers: 2}} {
		t.Run(exec.Name(), func(t *testing.T) { testWorkersBound(t, exec) })
	}
}

func testWorkersBound(t *testing.T, exec Executor) {
	workers := exec.workerCount()
	schemes := []string{"Dir1NB", "WTI", "Dir0B", "Dragon", "DirNNB", "Dir1B"}
	e := New(Options{})
	cfgs := []workload.Config{workload.POPSConfig(4, 60_000)}
	var journal bytes.Buffer
	if _, err := e.Compare(journaled(&journal, "bound"), exec, schemes, cfgs, false); err != nil {
		t.Fatal(err)
	}

	// Sweep the simulate spans' endpoints in time order; an end sorts
	// before a start at the same instant.
	type edge struct {
		at    float64
		delta int
	}
	type span struct{ from, to float64 }
	walks := map[any]span{}
	n := 0
	for _, ev := range renderTrace(t, journal.Bytes()).TraceEvents {
		if ev.Ph == "X" && strings.HasPrefix(ev.Name, "simulate:") {
			n++
			w, ok := walks[ev.Args["parent"]]
			if !ok {
				w = span{*ev.TS, *ev.TS + *ev.Dur}
			}
			walks[ev.Args["parent"]] = span{min(w.from, *ev.TS), max(w.to, *ev.TS+*ev.Dur)}
		}
	}
	if n != len(schemes) || len(walks) != 3 {
		t.Fatalf("%d simulate spans in %d walks, want %d in 3", n, len(walks), len(schemes))
	}
	var edges []edge
	for _, w := range walks {
		edges = append(edges, edge{w.from, +1}, edge{w.to, -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta
	})
	open, peak := 0, 0
	for _, ed := range edges {
		if open += ed.delta; open > peak {
			peak = open
		}
	}
	if peak > workers {
		t.Errorf("%d walks open at once in a pool of %d", peak, workers)
	}
}

// TestTracedRunMatchesUntraced pins the zero-interference property: the
// same sweep with tracing on produces bit-identical results to an
// untraced run.
func TestTracedRunMatchesUntraced(t *testing.T) {
	cfgs := workload.StandardConfigs(4, 15_000)[:2]
	schemes := []string{"Dir1B", "Dragon"}
	ctx := context.Background()

	plain := New(Options{})
	want, err := plain.Compare(ctx, Parallel{Workers: 4}, schemes, cfgs, false)
	if err != nil {
		t.Fatal(err)
	}
	var journal bytes.Buffer
	traced := New(Options{})
	got, err := traced.Compare(journaled(&journal, "traced"), Parallel{Workers: 4}, schemes, cfgs, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range schemes {
		if want[s].Fingerprint() != got[s].Fingerprint() {
			t.Errorf("scheme %s: traced run diverged from untraced", s)
		}
	}
}

// TestJobErrorLandsOnSpan checks failed jobs carry their error into the
// rendered span's args.
func TestJobErrorLandsOnSpan(t *testing.T) {
	boom := errors.New("boom")
	e := New(Options{Remote: remoteFunc(func(_ context.Context, specs []SimSpec) ([]*sim.Result, []error) {
		return make([]*sim.Result, len(specs)), []error{boom}
	})})
	spec := SimSpec{Trace: workload.POPSConfig(4, 1_000), Scheme: "Dragon"}
	var journal bytes.Buffer
	if _, err := e.Results(journaled(&journal, "boom"), Sequential{}, []SimSpec{spec}); err == nil {
		t.Fatal("job unexpectedly succeeded")
	}
	found := false
	for _, ev := range renderTrace(t, journal.Bytes()).TraceEvents {
		if ev.Name == spec.Name() && ev.Ph == "X" {
			if s, _ := ev.Args["error"].(string); s == "" {
				t.Errorf("job span has no error arg: %v", ev.Args)
			}
			found = true
		}
	}
	if !found {
		t.Error("failed job has no span")
	}
}
