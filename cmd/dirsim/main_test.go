package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dirsim/internal/trace"
	"dirsim/internal/workload"
)

func TestLoadTraceWorkloads(t *testing.T) {
	for _, wl := range []string{"pops", "thor", "pero", "pingpong", "migratory",
		"prodcons", "readshared", "private", "spincontend"} {
		tr, err := loadTrace(wl, "", 4, 2000)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: invalid trace: %v", wl, err)
		}
	}
	if _, err := loadTrace("bogus", "", 4, 100); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestLoadTraceFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.trc")
	orig := workload.PingPong(100)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteBinary(f, orig); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := loadTrace("", path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != orig.Len() || got.Name != orig.Name {
		t.Errorf("loaded %d refs of %q", got.Len(), got.Name)
	}
	if _, err := loadTrace("", filepath.Join(dir, "missing.trc"), 0, 0); err == nil {
		t.Error("missing file accepted")
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "out.csv")
	if err := run("pingpong", "", 2, 2000, "Dir0B,Dragon", true, true, false, true, csvPath, "", "", 0); err != nil {
		t.Fatal(err)
	}
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
	if err := run("pingpong", "", 2, 100, "NotAScheme", false, false, false, false, "", "", "", 0); err == nil {
		t.Error("unknown scheme accepted")
	}
	if err := run("bogus", "", 2, 100, "Dir0B", false, false, false, false, "", "", "", 0); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestRunConformance(t *testing.T) {
	if err := runConformance("Dir0B"); err != nil {
		t.Fatal(err)
	}
	if err := runConformance("NotAScheme"); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestRunWithSpinsFiltered(t *testing.T) {
	if err := run("spincontend", "", 4, 2000, "Dir1NB", false, false, true, false, "", "", "", 0); err != nil {
		t.Fatal(err)
	}
}

// TestRunWithTraceJSON checks -tracejson writes a valid Chrome
// trace-event file with one simulate span per scheme and sampled
// protocol instants.
func TestRunWithTraceJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := run("pingpong", "", 2, 4000, "Dir0B,WTI", false, false, false, false, "", "", path, 4); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	spans := map[string]bool{}
	instants := 0
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" {
			spans[ev.Name] = true
		}
		if ev.Ph == "i" && ev.Cat == "proto" {
			instants++
		}
	}
	for _, want := range []string{"simulate:Dir0B@pingpong", "simulate:WTI@pingpong"} {
		if !spans[want] {
			t.Errorf("missing span %q", want)
		}
	}
	if instants == 0 {
		t.Error("no sampled protocol instants in trace (pingpong writes shared data; stride 4 must sample some)")
	}
}

// TestRunWithJournal checks the journal carries the run bracket and one
// simulate.finish span per scheme, each with its wall time.
func TestRunWithJournal(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "run.jsonl")
	if err := run("pingpong", "", 2, 2000, "Dir0B,Dragon", false, false, false, false, "", journal, "", 0); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	var sims int
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("journal line not valid JSON: %v\n%s", err, line)
		}
		msg := m["msg"].(string)
		msgs = append(msgs, msg)
		if msg == "simulate.finish" {
			sims++
			if m["refs"].(float64) <= 0 || m["dur_us"].(float64) < 0 {
				t.Errorf("simulate.finish span fields wrong: %v", m)
			}
			if m["scheme"] == "" || m["trace"] != "pingpong" {
				t.Errorf("simulate.finish identity wrong: %v", m)
			}
		}
	}
	if msgs[0] != "run.start" || msgs[len(msgs)-1] != "run.finish" {
		t.Errorf("journal not bracketed by run events: %v", msgs)
	}
	if sims != 2 {
		t.Errorf("simulate.finish events = %d, want 2", sims)
	}
}
