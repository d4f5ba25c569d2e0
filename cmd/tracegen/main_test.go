package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dirsim/internal/obs"
	"dirsim/internal/trace"
	"dirsim/internal/workload"
)

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
}

// TestGeneratedTraceIsNamedWorkload: a trace tracegen writes is the
// trace every other entry point means by the same name, above 4 CPUs
// too, where the profile scales with the machine.
func TestGeneratedTraceIsNamedWorkload(t *testing.T) {
	dir := t.TempDir()
	for _, wl := range []string{"pops", "thor", "pero"} {
		path := filepath.Join(dir, wl+".trc")
		if err := run(wl, 16, 20_000, 0, path, "binary", "", "", ""); err != nil {
			t.Fatal(err)
		}
		got, err := readTrace(path)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := workload.Named(wl, 16, 20_000)
		if err != nil {
			t.Fatal(err)
		}
		if want := workload.MustGenerate(cfg); got.Fingerprint() != want.Fingerprint() {
			t.Errorf("%s: tracegen wrote fingerprint %#x, workload.Named's trace has %#x",
				wl, got.Fingerprint(), want.Fingerprint())
		}
	}
}

func TestGenerateInspectConvertRoundTrip(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "t.trc")
	txt := filepath.Join(dir, "t.txt")

	// Generate binary.
	if err := run("pops", 2, 3000, 0, bin, "binary", "", "", ""); err != nil {
		t.Fatal(err)
	}
	// Inspect it (writes stats to stdout).
	if err := run("", 0, 0, 0, "", "", bin, "", ""); err != nil {
		t.Fatal(err)
	}
	// Convert binary -> text.
	if err := run("", 0, 0, 0, txt, "text", "", bin, ""); err != nil {
		t.Fatal(err)
	}
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

// TestRunWithJournal checks -journal brackets the run with valid JSONL
// carrying the schema version and a generate.finish event with the
// resolved seed.
func TestRunWithJournal(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "run.jsonl")
	bin := filepath.Join(dir, "t.trc")
	if err := run("pops", 2, 3000, 0, bin, "binary", "", "", journal); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("journal line not valid JSON: %v\n%s", err, line)
		}
		if int(m["schema"].(float64)) != obs.SchemaVersion {
			t.Errorf("journal line missing schema %d: %v", obs.SchemaVersion, m)
		}
		msgs = append(msgs, m["msg"].(string))
		if m["msg"] == "generate.finish" {
			if m["trace"] != "pops" || m["refs"].(float64) <= 0 || m["seed"].(float64) == 0 {
				t.Errorf("generate.finish fields wrong: %v", m)
			}
		}
	}
	want := []string{"run.start", "generate.finish", "run.finish"}
	if len(msgs) != len(want) {
		t.Fatalf("journal events = %v, want %v", msgs, want)
	}
	for i := range want {
		if msgs[i] != want[i] {
			t.Fatalf("journal events = %v, want %v", msgs, want)
		}
	}

	// Errors land in the journal too.
	journal2 := filepath.Join(dir, "err.jsonl")
	if err := run("bogus", 2, 100, 0, "", "binary", "", "", journal2); err == nil {
		t.Fatal("unknown workload accepted")
	}
	data, err = os.ReadFile(journal2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"level":"ERROR"`) {
		t.Errorf("journal has no error event:\n%s", data)
	}
}

func TestRunErrorsTracegen(t *testing.T) {
	if err := run("", 0, 0, 0, "", "binary", "", "", ""); err == nil {
		t.Error("no action should be an error")
	}
	if err := run("pops", 2, 100, 0, "", "xml", "", "", ""); err == nil {
		t.Error("unknown format accepted")
	}
	if err := run("", 0, 0, 0, "", "", "/nonexistent/file", "", ""); err == nil {
		t.Error("missing inspect file accepted")
	}
}
