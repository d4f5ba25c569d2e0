package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dirsim/internal/obs"
	"dirsim/internal/report"
	"dirsim/internal/store"
)

func TestListExperiments(t *testing.T) {
	var buf bytes.Buffer
	if err := runExperiments(&buf, io.Discard, config{sel: "all", list: true, parallel: 1}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, id := range []string{"table3", "table4", "fig1", "fig5", "spinlocks", "coarse"} {
		if !strings.Contains(out, id) {
			t.Errorf("listing missing %q", id)
		}
	}
}

func TestRunSubset(t *testing.T) {
	var buf bytes.Buffer
	if err := runExperiments(&buf, io.Discard, config{sel: "table3,storage", refs: 20_000, cpus: 4, parallel: 1}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "pops") || !strings.Contains(out, "full-map") {
		t.Errorf("output incomplete:\n%s", out)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	err := runExperiments(&buf, io.Discard, config{sel: "nonsense", refs: 10_000, cpus: 4, parallel: 1})
	if err == nil {
		t.Fatal("unknown experiment id accepted")
	}
	// The error must name the offender and list every valid ID so the
	// failure is actionable straight from the terminal.
	msg := err.Error()
	if !strings.Contains(msg, "nonsense") {
		t.Errorf("error does not name the unknown id: %v", err)
	}
	for _, id := range []string{"table3", "table4", "fig1", "fig5", "spinlocks", "coarse", "vm", "-list"} {
		if !strings.Contains(msg, id) {
			t.Errorf("error listing missing %q:\n%s", id, msg)
		}
	}
}

func TestRunWithChecking(t *testing.T) {
	var buf bytes.Buffer
	if err := runExperiments(&buf, io.Discard, config{sel: "fig1", refs: 20_000, cpus: 4, check: true, parallel: 1}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "at most one cache") {
		t.Error("fig1 output missing its conclusion")
	}
}

// updateGolden rewrites testdata/all_20000.golden from the current
// experiments (only for a deliberate change to their text).
var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/all_20000.golden from the current experiments")

// TestParallelOutputIdentical asserts the acceptance property of the
// execution engine: the concurrent run renders byte-identical output to
// the serial one. The whole regeneration at 20 000 refs is also pinned
// byte for byte: both runs must print testdata/all_20000.golden, the
// text of every experiment, so a change to any study's numbers or
// formatting names itself here.
func TestParallelOutputIdentical(t *testing.T) {
	for _, in := range []struct {
		sel    string
		refs   int
		golden string
	}{
		{"table3,table4,fig1,fig2,fig3,spinlocks", 25_000, ""},
		{"all", 20_000, "all_20000.golden"},
	} {
		var serial, parallel bytes.Buffer
		if err := runExperiments(&serial, io.Discard, config{sel: in.sel, refs: in.refs, cpus: 4, parallel: 1}); err != nil {
			t.Fatal(err)
		}
		if err := runExperiments(&parallel, io.Discard, config{sel: in.sel, refs: in.refs, cpus: 4, parallel: 8}); err != nil {
			t.Fatal(err)
		}
		if serial.String() != parallel.String() {
			t.Errorf("%s: parallel output differs from serial output\nserial:\n%s\nparallel:\n%s",
				in.sel, serial.String(), parallel.String())
		}
		if in.golden == "" {
			continue
		}
		path := filepath.Join("testdata", in.golden)
		if *updateGolden {
			if err := os.WriteFile(path, serial.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string]string{"serial": serial.String(), "parallel": parallel.String()} {
			if got != string(want) {
				t.Errorf("%s -run %s -refs %d differs from %s (rerun with -update-golden only for a deliberate text change):\n%s",
					name, in.sel, in.refs, path, firstDiff(got, string(want)))
			}
		}
	}
}

// firstDiff names the first line where got and want part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < min(len(g), len(w)); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got  %q\n want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}

// failing fabricates a failing experiment for the error-path tests.
func failing(id string) report.Experiment {
	return report.Experiment{ID: id, Title: id,
		Run: func(*report.Context) (*report.Section, error) { return nil, errors.New(id + " exploded") }}
}

// succeeding fabricates an experiment whose section prints out as its
// banner's title.
func succeeding(id, out string) report.Experiment {
	return report.Experiment{ID: id, Title: id,
		Run: func(*report.Context) (*report.Section, error) { return &report.Section{ID: id, Title: out}, nil }}
}

// TestAllFailuresReported runs a list with two failing experiments under
// both executors: every failure must surface in the returned error, the
// surviving experiment must still print, and the journal must carry a
// final error event naming the failures.
func TestAllFailuresReported(t *testing.T) {
	for _, parallel := range []int{1, 4} {
		exps := []report.Experiment{failing("bad1"), succeeding("good", "good-output"), failing("bad2")}
		var out bytes.Buffer
		journal := filepath.Join(t.TempDir(), "run.jsonl")
		err := runSelected(&out, io.Discard, config{journal: journal, parallel: parallel}, exps)
		if err == nil {
			t.Fatalf("parallel=%d: failures did not produce an error", parallel)
		}
		for _, want := range []string{"bad1 exploded", "bad2 exploded"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("parallel=%d: error missing %q: %v", parallel, want, err)
			}
		}
		if !strings.Contains(out.String(), "good-output") {
			t.Errorf("parallel=%d: surviving experiment's output suppressed", parallel)
		}

		events := readJournal(t, journal)
		var errEvents []map[string]any
		for _, e := range events {
			if e["msg"] == "error" {
				errEvents = append(errEvents, e)
			}
		}
		if len(errEvents) != 1 {
			t.Fatalf("parallel=%d: %d error journal events, want 1", parallel, len(errEvents))
		}
		if failed, _ := errEvents[0]["failed"].(string); failed != "bad1,bad2" {
			t.Errorf("parallel=%d: error event failed=%q, want bad1,bad2", parallel, failed)
		}
		// The error event closes the journal's lifecycle: only the
		// run.finish bookkeeping event may follow it.
		if events[len(events)-1]["msg"] != "run.finish" || events[len(events)-2]["msg"] != "error" {
			t.Errorf("parallel=%d: error event not final: last events %v / %v",
				parallel, events[len(events)-2]["msg"], events[len(events)-1]["msg"])
		}
	}
}

// TestFaultRunFailureReport: with every job attempt panicking, the run
// must fail, print the per-experiment causes on the error writer, and
// record the fault spec (and the failure) in the manifest so the run is
// reproducible from its artifacts.
func TestFaultRunFailureReport(t *testing.T) {
	manifest := filepath.Join(t.TempDir(), "run.json")
	var out, ew bytes.Buffer
	cfg := config{sel: "table4", refs: 10_000, cpus: 4, parallel: 4,
		faults: "panic=1", faultSeed: 7, manifest: manifest}
	err := runExperiments(&out, &ew, cfg)
	if err == nil {
		t.Fatal("run with guaranteed panics reported success")
	}
	msg := ew.String()
	if !strings.Contains(msg, "1 of 1 experiments failed:") {
		t.Errorf("error writer missing the failure block:\n%s", msg)
	}
	if !strings.Contains(msg, "table4:") || !strings.Contains(msg, "panic") {
		t.Errorf("failure block does not name the experiment and cause:\n%s", msg)
	}

	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Config struct {
			Faults    string `json:"faults"`
			FaultSeed uint64 `json:"fault_seed"`
		} `json:"config"`
		Experiments []struct {
			ID    string `json:"id"`
			Error string `json:"error"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest not valid JSON: %v", err)
	}
	if m.Config.Faults != "panic=1" || m.Config.FaultSeed != 7 {
		t.Errorf("manifest fault config = %+v, want panic=1 seed 7", m.Config)
	}
	if len(m.Experiments) != 1 || m.Experiments[0].Error == "" {
		t.Errorf("manifest does not record the failure: %+v", m.Experiments)
	}
}

// TestFaultRunRecovery: spurious failures under a retry budget must not
// sink the run — the output is the same report a clean run prints.
func TestFaultRunRecovery(t *testing.T) {
	var clean, faulty bytes.Buffer
	if err := runExperiments(&clean, io.Discard, config{
		sel: "table4", refs: 10_000, cpus: 4, parallel: 4}); err != nil {
		t.Fatal(err)
	}
	if err := runExperiments(&faulty, io.Discard, config{
		sel: "table4", refs: 10_000, cpus: 4, parallel: 4,
		faults: "error=0.2", faultSeed: 1, retries: 6}); err != nil {
		t.Fatalf("retries did not absorb spurious failures: %v", err)
	}
	if clean.String() != faulty.String() {
		t.Errorf("recovered fault run differs from clean run\nclean:\n%s\nfaulty:\n%s",
			clean.String(), faulty.String())
	}
}

// TestBadFaultSpecRejected: a malformed -faults spec is a usage error,
// reported before anything runs.
func TestBadFaultSpecRejected(t *testing.T) {
	var out bytes.Buffer
	err := runExperiments(&out, io.Discard, config{
		sel: "table4", refs: 10_000, cpus: 4, parallel: 1, faults: "bogus=1"})
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("bad fault spec error = %v, want it to name the bad key", err)
	}
}

// readJournal decodes every JSONL line of a journal file.
func readJournal(t *testing.T, path string) []map[string]any {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []map[string]any
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		if k, err := obs.RepeatedKey(sc.Bytes()); err != nil || k != "" {
			t.Fatalf("journal line %d repeats %q (%v): %s", len(out)+1, k, err, sc.Text())
		}
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("journal line %d not valid JSON: %v\n%s", len(out)+1, err, sc.Text())
		}
		out = append(out, m)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestJournalAndSummary runs two experiments with the journal enabled
// and checks the JSONL decodes, carries the full event lifecycle, and
// that the per-phase + cache summary lands on the summary writer.
func TestJournalAndSummary(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "run.jsonl")
	var out, summary bytes.Buffer
	cfg := config{sel: "table3,fig1", refs: 15_000, cpus: 4, parallel: 4, journal: journal}
	if err := runExperiments(&out, &summary, cfg); err != nil {
		t.Fatal(err)
	}
	events := readJournal(t, journal)
	seen := map[string]int{}
	for _, e := range events {
		seen[e["msg"].(string)]++
	}
	if seen["run.start"] != 1 || seen["run.finish"] != 1 {
		t.Errorf("run bracket events wrong: %v", seen)
	}
	if seen["experiment.start"] != 2 || seen["experiment.finish"] != 2 {
		t.Errorf("experiment bracket events wrong: %v", seen)
	}
	if seen["job.finish"] == 0 || seen["job.scheduled"] == 0 {
		t.Errorf("engine job events missing: %v", seen)
	}
	// Every line carries the run's trace, and every job.finish its span
	// fields.
	for _, e := range events {
		if e["trace"] != events[0]["trace"] || e["trace"] == nil {
			t.Fatalf("line outside the run's trace %v: %v", events[0]["trace"], e)
		}
		if e["msg"] != "job.finish" {
			continue
		}
		if _, ok := e["dur_us"].(float64); !ok {
			t.Fatalf("job.finish without dur_us: %v", e)
		}
		if _, ok := e["cache_hit"].(bool); !ok {
			t.Fatalf("job.finish without cache_hit: %v", e)
		}
	}

	s := summary.String()
	for _, want := range []string{"run summary", "hit rate", " walks, ", "traces generated\n", "phases:",
		"experiment       2 spans", "generate ", "simulate ", "experiments:", "table3"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

// TestManifestFlag checks the run manifest decodes and carries config,
// seeds, per-experiment timings, and engine counters.
func TestManifestFlag(t *testing.T) {
	manifest := filepath.Join(t.TempDir(), "run.json")
	var out bytes.Buffer
	cfg := config{sel: "table3", refs: 15_000, cpus: 4, parallel: 2, manifest: manifest}
	if err := runExperiments(&out, io.Discard, cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Config struct {
			Refs     int               `json:"refs"`
			Executor string            `json:"executor"`
			Seeds    map[string]uint64 `json:"seeds"`
		} `json:"config"`
		Experiments []struct {
			ID      string  `json:"id"`
			Seconds float64 `json:"seconds"`
		} `json:"experiments"`
		Engine        map[string]int64 `json:"engine_counters"`
		CacheHitRatio float64          `json:"cache_hit_ratio"`
		Phases        []obs.PhaseStat  `json:"phases"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest not valid JSON: %v", err)
	}
	if m.Config.Refs != 15_000 || m.Config.Executor != "parallel" {
		t.Errorf("manifest config wrong: %+v", m.Config)
	}
	if len(m.Config.Seeds) == 0 {
		t.Error("manifest missing workload seeds")
	}
	if len(m.Experiments) != 1 || m.Experiments[0].ID != "table3" || m.Experiments[0].Seconds <= 0 {
		t.Errorf("manifest experiments wrong: %+v", m.Experiments)
	}
	// table3 is generation-only: traces are produced but no sim jobs run.
	if m.Engine["engine.traces.generated"] == 0 {
		t.Errorf("manifest engine counters wrong: %v", m.Engine)
	}
	// table3 reads its traces straight from the engine, so no engine job
	// ran: its phases are its one experiment and the generation of its
	// three traces.
	if len(m.Phases) != 2 || m.Phases[0].Phase != "experiment" || m.Phases[0].Count != 1 ||
		m.Phases[1].Phase != "generate" || m.Phases[1].Count != 3 {
		t.Errorf("manifest phases wrong: %+v", m.Phases)
	}
	// The engine's fifteen counters (engine.walks.run the newest), with
	// nothing left of streamed generation among them.
	for _, gone := range []string{"engine.traces.streamed", "engine.stream.chunks", "engine.stream.stalls"} {
		if _, ok := m.Engine[gone]; ok {
			t.Errorf("manifest still carries %s: %v", gone, m.Engine)
		}
	}
	n := 0
	for name := range m.Engine {
		if strings.HasPrefix(name, "engine.") {
			n++
		}
	}
	if n != 15 {
		t.Errorf("manifest carries %d engine.* counters, want 15: %v", n, m.Engine)
	}
}

// TestManifestIsRunReport: the manifest of a parallel run over a store
// is the run report. It lists the experiments in selection order, each
// done with its time, carries schema 4, and its store.* counters and
// gauges are the store's own statistics after the run: a cold run
// writes every result it misses, and a warm one over the same directory
// serves every one of them.
func TestManifestIsRunReport(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	read := func(name string) obs.RunReport {
		t.Helper()
		path := filepath.Join(dir, name)
		cfg := config{sel: "table3,fig1", refs: 15_000, cpus: 4, parallel: 2, manifest: path, store: storeDir}
		if err := runExperiments(io.Discard, io.Discard, cfg); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rep obs.RunReport
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatalf("manifest not valid JSON: %v", err)
		}
		if rep.Schema != 4 || rep.Command != "experiments" || rep.Config.Store != storeDir {
			t.Errorf("%s: schema %d, command %q, store %q", name, rep.Schema, rep.Command, rep.Config.Store)
		}
		var ids []string
		for _, e := range rep.Experiments {
			ids = append(ids, e.ID)
			if e.State != "done" || e.Seconds <= 0 || e.Error != "" {
				t.Errorf("%s: experiment %+v", name, e)
			}
		}
		if strings.Join(ids, ",") != "table3,fig1" {
			t.Errorf("%s: experiments %v, want table3,fig1 in selection order", name, ids)
		}
		return rep
	}
	storeStats := func() store.Stats {
		t.Helper()
		st, err := store.Open(storeDir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return st.Stats()
	}
	check := func(name string, rep obs.RunReport, want store.Stats) {
		t.Helper()
		c, g := rep.Counters, rep.Gauges
		got := store.Stats{Dir: want.Dir, Entries: int(g["store.entries"]), Bytes: g["store.bytes"],
			Hits: c["store.hits"], Misses: c["store.misses"], Rejected: c["store.rejected"],
			Writes: c["store.writes"], WriteErrors: c["store.write_errors"], Evictions: c["store.evictions"]}
		if got != want {
			t.Errorf("%s: report's store instruments %+v, store's statistics %+v", name, got, want)
		}
	}

	cold := read("cold.json")
	after := storeStats()
	if after.Entries == 0 {
		t.Fatal("cold run stored nothing")
	}
	after.Misses, after.Writes = int64(after.Entries), int64(after.Entries)
	check("cold", cold, after)

	warm := read("warm.json")
	after.Hits, after.Misses, after.Writes = int64(after.Entries), 0, 0
	check("warm", warm, after)
	if warm.Counters["engine.sims.run"] != 0 {
		t.Errorf("warm run simulated %d results", warm.Counters["engine.sims.run"])
	}
}

// TestMetricsFlag checks -metrics writes the Prometheus exposition with
// the engine families and the protocol families of the simulations run.
func TestMetricsFlag(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "metrics.txt")
	var out bytes.Buffer
	cfg := config{sel: "fig1", refs: 15_000, cpus: 4, parallel: 1, metrics: metrics}
	if err := runExperiments(&out, io.Discard, cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"\nengine_jobs_run ", "\nengine_cache_", "# TYPE sim_proto_dir0b_clean_writes counter\n",
		"\nsim_proto_dir0b_invals_clean_write_count "} {
		if !strings.Contains(string(data), want) {
			t.Errorf("exposition missing %q:\n%s", want, data)
		}
	}
}

// TestTraceEdgesMatchGolden: the -trace export of a whole parallel run,
// rendered from the run's journal, has the span and instant names and
// the parent edges of the execution tracer's export it replaced
// (testdata/trace_edges.golden, whose header states its rules), and
// every sim: job runs at most one attempt, attempt:0, which walks.
func TestTraceEdgesMatchGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	cfg := config{sel: "all", refs: 20_000, cpus: 4, parallel: 2, trace: path}
	if err := runExperiments(io.Discard, io.Discard, cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			ID   int            `json:"id"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	names := map[float64]string{}
	for _, ev := range tf.TraceEvents {
		names[float64(ev.ID)] = ev.Name
	}
	got := map[string]int{}
	simAttempts := map[float64]int{}  // attempt spans per sim: job
	var walkAttempts []float64        // attempt:0 spans of sim: jobs
	walkParents := map[float64]bool{} // parents of simulate: spans
	for _, ev := range tf.TraceEvents {
		if ev.Ph != "X" && ev.Ph != "i" {
			continue
		}
		parent := "-"
		id, ok := ev.Args["parent"].(float64)
		if ok {
			parent = names[id]
		}
		switch {
		case strings.HasPrefix(ev.Name, "attempt:") && strings.HasPrefix(parent, "sim:"):
			if simAttempts[id]++; ev.Name != "attempt:0" {
				t.Errorf("%s of %s in a run without faults", ev.Name, parent)
			}
			walkAttempts = append(walkAttempts, float64(ev.ID))
			continue // not listed (the golden file's rule)
		case strings.HasPrefix(ev.Name, "simulate:"):
			walkParents[id] = true
		}
		got[ev.Ph+" "+ev.Name+" "+parent]++
	}
	for id, n := range simAttempts {
		if n > 1 {
			t.Errorf("%s ran %d attempts in a run without faults", names[id], n)
		}
	}
	for _, id := range walkAttempts {
		if !walkParents[id] {
			t.Errorf("%s span %v of a sim: job parents no simulate: span", names[id], id)
		}
	}

	golden, err := os.ReadFile(filepath.Join("testdata", "trace_edges.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	for _, line := range strings.Split(string(golden), "\n") {
		f := strings.Fields(line)
		if len(f) != 4 || strings.HasPrefix(line, "#") {
			continue
		}
		n, err := strconv.Atoi(f[3])
		if err != nil {
			t.Fatalf("golden line %q: %v", line, err)
		}
		want[strings.Join(f[:3], " ")] = n
	}
	for edge := range merged(got, want) {
		if g, w := got[edge], want[edge]; g != w {
			t.Errorf("edge %q: %d in the export, %d in the golden file", edge, g, w)
		}
	}
}

// merged returns the union of two count maps' keys.
func merged(a, b map[string]int) map[string]bool {
	out := map[string]bool{}
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}
