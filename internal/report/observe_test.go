package report

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"dirsim/internal/obs"
)

// TestRunExperimentObserved checks the report pipeline's observability
// wiring: with a journal on the base context, RunExperiment brackets the
// run in experiment events; without one it is a plain call.
func TestRunExperimentObserved(t *testing.T) {
	c := NewContext(10_000, 4)
	var buf bytes.Buffer
	c.WithBase(obs.WithJournal(context.Background(), obs.NewJournal(&buf)))

	e := Experiment{ID: "fake", Title: "fake",
		Run: func(*Context) (*Section, error) { return &Section{ID: "fake", Title: "rendered"}, nil }}
	const rendered = "### fake — rendered\n\n"
	out, err := c.RunExperiment(e)
	if err != nil || out != rendered {
		t.Fatalf("RunExperiment = %q, %v", out, err)
	}
	log := buf.String()
	schema := fmt.Sprintf(`"schema":%d`, obs.SchemaVersion)
	if !strings.Contains(log, `"msg":"experiment.start",`+schema+`,"name":"fake"`) ||
		!strings.Contains(log, `"msg":"experiment.finish",`+schema+`,"name":"fake","dur_us":`) {
		t.Errorf("experiment events missing or without the experiment ID:\n%s", log)
	}

	// Failures propagate and land in the journal at error level.
	buf.Reset()
	bad := Experiment{ID: "bad", Title: "bad",
		Run: func(*Context) (*Section, error) { return nil, errors.New("boom") }}
	if _, err := c.RunExperiment(bad); err == nil {
		t.Fatal("failure swallowed")
	}
	if !strings.Contains(buf.String(), `"level":"ERROR"`) {
		t.Errorf("failed experiment not journaled at error level:\n%s", buf.String())
	}

	// No journal: plain passthrough, no panic.
	buf.Reset()
	c.WithBase(nil)
	if out, err := c.RunExperiment(e); err != nil || out != rendered {
		t.Fatalf("unjournaled RunExperiment = %q, %v", out, err)
	}
	if buf.Len() != 0 {
		t.Errorf("unjournaled run wrote %q", buf.String())
	}
}

// TestRunzFromRunExperiment: /runz is the run report, whose experiments
// come from the lines RunExperiment journals. One experiment that
// succeeded and one that failed read as one done and one failed, each
// with its title, and the failure with its error.
func TestRunzFromRunExperiment(t *testing.T) {
	start := time.Now()
	c := NewContext(10_000, 4)
	var rec obs.Record
	c.WithBase(obs.WithJournal(context.Background(), obs.NewJournal(&rec)))
	c.RunExperiment(Experiment{ID: "ok", Title: "Table OK",
		Run: func(*Context) (*Section, error) { return &Section{ID: "ok", Title: "Table OK"}, nil }})
	c.RunExperiment(Experiment{ID: "bad", Title: "Figure Bad",
		Run: func(*Context) (*Section, error) { return nil, errors.New("boom") }})

	rep := obs.Report(&rec, obs.NewRegistry(), start)
	want := []obs.ExperimentReport{
		{ID: "ok", Title: "Table OK", State: "done"},
		{ID: "bad", Title: "Figure Bad", State: "failed", Error: "boom"},
	}
	if len(rep.Experiments) != len(want) {
		t.Fatalf("experiments = %+v, want %+v", rep.Experiments, want)
	}
	for i, e := range rep.Experiments {
		e.Seconds = 0
		if e != want[i] {
			t.Errorf("experiment %d = %+v, want %+v", i, e, want[i])
		}
	}
}
