package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dirsim/internal/obs"
	"dirsim/internal/trace"
	"dirsim/internal/workload"
)

// allWorkloads is every name workload.Named resolves, in the order
// dirsim's flag help lists them.
var allWorkloads = []string{"pops", "thor", "pero", "pingpong", "migratory",
	"prodcons", "readshared", "private", "spincontend"}

// runOut runs the command with args and returns its stdout.
func runOut(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("dirsim %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

// writeTraceFile writes the named workload's trace as a binary trace
// file in dir and returns its path.
func writeTraceFile(t *testing.T, dir, name string, cpus, refs int) string {
	t.Helper()
	cfg, err := workload.Named(name, cpus, refs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name+".bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := trace.WriteBinary(f, workload.MustGenerate(cfg)); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestStdoutGolden pins dirsim's stdout byte for byte: every workload
// name plain, with -nospins, with -check -events -stats and with -csv -,
// plus one -trace file (the pops trace at 4 CPUs and 20 000 refs). Each
// invocation's stdout follows a "$ dirsim <args>" line.
// testdata/stdout.golden was written by dirsim as it was before it
// simulated through the engine, and is never regenerated from the code
// under test: any byte of difference is a change in what dirsim prints.
func TestStdoutGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "stdout.golden"))
	if err != nil {
		t.Fatal(err)
	}
	const schemes = "Dir1NB,WTI,Dir0B,Dragon,DirNNB"
	var got bytes.Buffer
	invoke := func(shown string, args ...string) {
		fmt.Fprintf(&got, "$ dirsim %s\n", shown)
		if err := run(args, &got); err != nil {
			t.Errorf("dirsim %s: %v", shown, err)
		}
	}
	for _, wl := range allWorkloads {
		for _, extra := range []string{"", "-nospins", "-check -events -stats", "-csv -"} {
			args := append([]string{"-workload", wl, "-cpus", "4", "-refs", "20000", "-schemes", schemes},
				strings.Fields(extra)...)
			invoke(strings.Join(args, " "), args...)
		}
	}
	path := writeTraceFile(t, t.TempDir(), "pops", 4, 20_000)
	invoke("-trace pops.bin -schemes "+schemes+" -stats", "-trace", path, "-schemes", schemes, "-stats")
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("stdout differs from testdata/stdout.golden at line %d:\n got %q\nwant %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("stdout has %d lines, testdata/stdout.golden %d", len(gl), len(wl))
	}
}

// TestLoadTraceWorkloads: every workload name loads, generates and
// prints its statistics; an unknown name is refused.
func TestLoadTraceWorkloads(t *testing.T) {
	for _, wl := range allWorkloads {
		if out := runOut(t, "-workload", wl, "-cpus", "4", "-refs", "2000", "-schemes", "", "-stats"); out == "" {
			t.Errorf("%s: no statistics printed", wl)
		}
	}
	if err := run([]string{"-workload", "bogus"}, io.Discard); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestLoadTraceFromFile: a trace file loads and its results carry the
// trace's own name; a missing file is refused.
func TestLoadTraceFromFile(t *testing.T) {
	dir := t.TempDir()
	path := writeTraceFile(t, dir, "pingpong", 2, 100)
	if out := runOut(t, "-trace", path, "-schemes", "Dir0B"); !strings.HasPrefix(out, "== Dir0B over pingpong ==\n") {
		t.Errorf("results over the file:\n%s", out)
	}
	if err := run([]string{"-trace", filepath.Join(dir, "missing.trc")}, io.Discard); err == nil {
		t.Error("missing file accepted")
	}
}

func TestRunEndToEnd(t *testing.T) {
	csvPath := filepath.Join(t.TempDir(), "out.csv")
	runOut(t, "-workload", "pingpong", "-refs", "2000", "-schemes", "Dir0B,Dragon",
		"-stats", "-events", "-check", "-csv", csvPath)
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	if !strings.Contains(out, "Dir0B") || !strings.Contains(out, "Dragon") {
		t.Errorf("CSV missing schemes:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"unknown scheme":   {"-workload", "pingpong", "-refs", "100", "-schemes", "NotAScheme"},
		"unknown workload": {"-workload", "bogus", "-refs", "100", "-schemes", "Dir0B"},
		"seeded kernel":    {"-workload", "pingpong", "-refs", "100", "-seed", "3"},
		"unknown flag":     {"-nosuchflag"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestRunConformance(t *testing.T) {
	if out := runOut(t, "-conformance", "-schemes", "Dir0B"); !strings.Contains(out, "Dir0B    PASS") {
		t.Errorf("conformance output: %q", out)
	}
	if err := run([]string{"-conformance", "-schemes", "NotAScheme"}, io.Discard); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestRunWithSpinsFiltered(t *testing.T) {
	runOut(t, "-workload", "spincontend", "-refs", "2000", "-schemes", "Dir1NB", "-nospins")
}

// TestRunWithTraceJSON checks -tracejson writes a valid Chrome
// trace-event file with one simulate span per scheme.
func TestRunWithTraceJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	runOut(t, "-workload", "pingpong", "-refs", "4000", "-schemes", "Dir0B,WTI",
		"-tracejson", path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	spans := map[string]bool{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" {
			spans[ev.Name] = true
		}
	}
	for _, want := range []string{"simulate:Dir0B@pingpong", "simulate:WTI@pingpong"} {
		if !spans[want] {
			t.Errorf("missing span %q", want)
		}
	}
}

// readJournal parses a JSONL journal, checking every line carries the
// schema version.
func readJournal(t *testing.T, path string) []map[string]any {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var lines []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("journal line not valid JSON: %v\n%s", err, line)
		}
		if int(m["schema"].(float64)) != obs.SchemaVersion {
			t.Errorf("journal line missing schema %d: %v", obs.SchemaVersion, m)
		}
		lines = append(lines, m)
	}
	return lines
}

// TestRunWithJournal checks the journal is bracketed by run.start and
// run.finish and holds, inside the bracket, exactly one engine sim.run
// span per scheme, named simulate:<scheme>@pingpong, with its wall time
// and reference count.
func TestRunWithJournal(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "run.jsonl")
	runOut(t, "-workload", "pingpong", "-refs", "2000", "-schemes", "Dir0B,Dragon", "-journal", journal)
	lines := readJournal(t, journal)
	if lines[0]["msg"] != "run.start" || lines[len(lines)-1]["msg"] != "run.finish" {
		t.Fatalf("journal not bracketed by run events: first %v, last %v", lines[0], lines[len(lines)-1])
	}
	sims := map[string]int{}
	for _, m := range lines[1 : len(lines)-1] {
		if m["msg"] != "sim.run" {
			continue
		}
		name, _ := m["name"].(string)
		sims[name]++
		if _, ok := m["dur_us"].(float64); !ok || m["refs"].(float64) <= 0 {
			t.Errorf("sim.run span fields wrong: %v", m)
		}
	}
	want := map[string]int{"simulate:Dir0B@pingpong": 1, "simulate:Dragon@pingpong": 1}
	if fmt.Sprint(sims) != fmt.Sprint(want) {
		t.Errorf("sim.run spans = %v, want %v", sims, want)
	}
	for _, m := range lines {
		if m["msg"] == "simulate.finish" {
			t.Errorf("journal still carries simulate.finish: %v", m)
		}
	}
}

// The tests below are the trace tool's: generating, inspecting and
// converting trace files with -o, -format and -seed.

func TestWorkloadConfig(t *testing.T) {
	for _, wl := range []string{"pops", "thor", "pero"} {
		cfg, err := workloadConfig(wl, 4, 1000, 0)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if cfg.Seed == 0 {
			t.Errorf("%s: fixed seed not applied", wl)
		}
		if cfg.CPUs != 4 || cfg.Refs != 1000 {
			t.Errorf("%s: %+v", wl, cfg)
		}
	}
	cfg, err := workloadConfig("pops", 2, 100, 77)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 77 {
		t.Error("seed override ignored")
	}
	if _, err := workloadConfig("bogus", 4, 100, 0); err == nil {
		t.Error("unknown workload accepted")
	}
	if cfg, _ := workloadConfig("migratory", 4, 100, 3); cfg.Validate() == nil {
		t.Error("a seeded kernel Config validated")
	}
}

func readTrace(t *testing.T, path string) *trace.Trace {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.ReadBinary(f)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestGeneratedTraceIsNamedWorkload: a trace dirsim -o writes is the
// trace every other entry point means by the same name, above 4 CPUs
// too, where the profile scales with the machine, and for kernels.
func TestGeneratedTraceIsNamedWorkload(t *testing.T) {
	dir := t.TempDir()
	for _, wl := range []string{"pops", "thor", "pero", "migratory"} {
		path := filepath.Join(dir, wl+".trc")
		runOut(t, "-workload", wl, "-cpus", "16", "-refs", "20000", "-schemes", "", "-o", path)
		cfg, err := workload.Named(wl, 16, 20_000)
		if err != nil {
			t.Fatal(err)
		}
		got := readTrace(t, path)
		if want := workload.MustGenerate(cfg); got.Fingerprint() != want.Fingerprint() {
			t.Errorf("%s: dirsim -o wrote fingerprint %#x, workload.Named's trace has %#x",
				wl, got.Fingerprint(), want.Fingerprint())
		}
	}
}

func TestGenerateInspectConvertRoundTrip(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "t.trc")
	txt := filepath.Join(dir, "t.txt")

	// Generate binary.
	runOut(t, "-workload", "pops", "-cpus", "2", "-refs", "3000", "-schemes", "", "-o", bin)
	// Inspect it.
	if out := runOut(t, "-trace", bin, "-schemes", "", "-stats"); out == "" {
		t.Error("inspecting printed no statistics")
	}
	// Convert binary -> text.
	runOut(t, "-trace", bin, "-schemes", "", "-o", txt, "-format", "text")
	// The text file must parse back to the same trace.
	f, err := os.Open(txt)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fromText, err := trace.ReadText(f)
	if err != nil {
		t.Fatal(err)
	}
	want := workload.MustGenerate(workload.Config{
		Name: "pops", CPUs: 2, Refs: 3000, Seed: workload.SeedPOPS,
		Profile: workload.POPSProfile(),
	})
	if fromText.Len() != want.Len() {
		t.Fatalf("round trip changed length: %d vs %d", fromText.Len(), want.Len())
	}
	for i := range want.Refs {
		if fromText.Refs[i] != want.Refs[i] {
			t.Fatalf("ref %d changed in round trip", i)
		}
	}
}

// TestTextTraceRoundTrip: a trace written with -format text reads back
// through -trace like one written in binary — both files print exactly
// what the generating run prints.
func TestTextTraceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	bin, txt := filepath.Join(dir, "pp.bin"), filepath.Join(dir, "pp.txt")
	gen := []string{"-workload", "pingpong", "-refs", "2000", "-schemes", ""}
	runOut(t, append(gen, "-o", bin)...)
	runOut(t, append(gen, "-o", txt, "-format", "text")...)
	want := runOut(t, "-workload", "pingpong", "-refs", "2000", "-stats")
	for _, path := range []string{bin, txt} {
		if got := runOut(t, "-trace", path, "-stats"); got != want {
			t.Errorf("dirsim -trace %s printed\n%s\nwant\n%s", filepath.Base(path), got, want)
		}
	}
}

// TestGenerateWithJournal checks generating a trace file journals valid
// JSONL bracketed by run.start, which carries the trace and its resolved
// seed, and run.finish; and that a failed run journals its error.
func TestGenerateWithJournal(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "run.jsonl")
	bin := filepath.Join(dir, "t.trc")
	runOut(t, "-workload", "pops", "-cpus", "2", "-refs", "3000", "-schemes", "", "-o", bin, "-journal", journal)
	lines := readJournal(t, journal)
	var msgs []string
	for _, m := range lines {
		msgs = append(msgs, m["msg"].(string))
	}
	if msgs[0] != "run.start" || msgs[len(msgs)-1] != "run.finish" {
		t.Fatalf("journal events = %v, want a run.start/run.finish bracket", msgs)
	}
	if m := lines[0]; m["trace"] != "pops" || m["refs"].(float64) <= 0 || m["seed"].(float64) != workload.SeedPOPS {
		t.Errorf("run.start fields wrong: %v", m)
	}

	// Errors land in the journal too.
	journal2 := filepath.Join(dir, "err.jsonl")
	if err := run([]string{"-workload", "bogus", "-journal", journal2}, io.Discard); err == nil {
		t.Fatal("unknown workload accepted")
	}
	data, err := os.ReadFile(journal2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"level":"ERROR"`) {
		t.Errorf("journal has no error event:\n%s", data)
	}
}

func TestRunErrorsTracegen(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-workload", "", "-o", filepath.Join(dir, "t.trc")}, io.Discard); err == nil {
		t.Error("no workload should be an error")
	}
	if err := run([]string{"-workload", "pops", "-refs", "100", "-o", filepath.Join(dir, "t.xml"), "-format", "xml"}, io.Discard); err == nil {
		t.Error("unknown format accepted")
	}
	if err := run([]string{"-trace", "/nonexistent/file", "-schemes", "", "-stats"}, io.Discard); err == nil {
		t.Error("missing inspect file accepted")
	}
}
