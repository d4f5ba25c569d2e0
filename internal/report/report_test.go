package report

import (
	"context"
	"errors"
	"strings"
	"testing"

	"dirsim/internal/trace"
)

// smallContext builds a context small enough for unit tests yet large
// enough that the qualitative results hold.
func smallContext() *Context { return NewContext(60_000, 4) }

func TestExperimentsRegistryOrder(t *testing.T) {
	exps := Experiments()
	if len(exps) < 15 {
		t.Fatalf("only %d experiments registered", len(exps))
	}
	// Paper order: tables 3 and 4 first, conclusions last.
	if exps[0].ID != "table3" || exps[1].ID != "table4" {
		t.Errorf("registry does not start with the methodology tables: %v", IDs())
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
	}
	for _, id := range []string{"fig1", "fig2", "fig3", "fig4", "fig5",
		"table5", "qsens", "spinlocks", "dirnnb", "dir1b", "berkeley",
		"scaling", "coarse", "storage", "finite",
		"sysperf", "network", "extended", "migration", "finitecoh",
		"blocksize", "dirbw", "contention", "vm"} {
		if !seen[id] {
			t.Errorf("experiment %q missing", id)
		}
	}
}

func TestLookup(t *testing.T) {
	all, err := Lookup("all")
	if err != nil || len(all) != len(Experiments()) {
		t.Errorf("Lookup(all): %d, err %v", len(all), err)
	}
	if got, err := Lookup(""); err != nil || len(got) != len(all) {
		t.Errorf("Lookup(empty) = %d, err %v", len(got), err)
	}
	some, err := Lookup("fig1, table4")
	if err != nil || len(some) != 2 {
		t.Fatalf("Lookup subset: %v, err %v", some, err)
	}
	if _, err := Lookup("fig1,bogus"); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("unknown id not reported: %v", err)
	}
}

func TestNewContextDefaults(t *testing.T) {
	c := NewContext(0, 0)
	if c.Refs != 400_000 || c.CPUs != 4 {
		t.Errorf("defaults: %d refs, %d cpus", c.Refs, c.CPUs)
	}
}

func TestContextCachesTraces(t *testing.T) {
	c := smallContext()
	traces := func(cpus int) []*trace.Trace {
		t.Helper()
		ts, err := c.TracesAt(cpus)
		if err != nil {
			t.Fatal(err)
		}
		return ts
	}
	a, err := c.Traces()
	if err != nil {
		t.Fatal(err)
	}
	// Slices are rebuilt but the underlying traces must be shared.
	if b := traces(4); len(b) != 3 || a[0] != b[0] {
		t.Error("TracesAt(headline size) should return the cached standard set")
	}
	if w8a, w8b := traces(8), traces(8); w8a[0] != w8b[0] {
		t.Error("scaled traces not cached")
	}
}

func TestContextMergedCaches(t *testing.T) {
	c := smallContext()
	a, err := c.Merged("Dir0B")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Merged("Dir0B")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("merged results not cached")
	}
	if _, err := c.Merged("NotAScheme"); err == nil {
		t.Error("unknown scheme accepted")
	}
}

// TestEveryExperimentRuns executes each registered experiment at a small
// size and sanity-checks its rendered output.
func TestEveryExperimentRuns(t *testing.T) {
	c := smallContext()
	wantSnippets := map[string]string{
		"table3":     "trace",
		"table4":     "wh-distrib",
		"table5":     "cumulative",
		"fig1":       "at most one cache",
		"fig2":       "Dir0B",
		"fig3":       "pero",
		"fig4":       "%",
		"fig5":       "cycles/txn",
		"qsens":      "q=1",
		"spinlocks":  "without spins",
		"dirnnb":     "sequential",
		"dir1b":      "broadcast",
		"berkeley":   "Berkeley",
		"scaling":    "Dir2NB",
		"coarse":     "DirCV",
		"storage":    "full-map",
		"finite":     "capacity",
		"sysperf":    "effective",
		"network":    "mesh",
		"extended":   "Berkeley",
		"migration":  "process",
		"finitecoh":  "footnote 2",
		"blocksize":  "false sharing",
		"dirbw":      "dir/mem",
		"contention": "saturates",
		"vm":         "executing",
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			out, err := e.Run(c)
			if err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			if len(out) < 100 {
				t.Fatalf("%s output suspiciously short:\n%s", e.ID, out)
			}
			if want := wantSnippets[e.ID]; want != "" && !strings.Contains(out, want) {
				t.Errorf("%s output missing %q:\n%s", e.ID, want, out)
			}
		})
	}
}

// TestQualitativeResultsHold asserts the paper's headline conclusions on
// freshly simulated traces.
func TestQualitativeResultsHold(t *testing.T) {
	c := NewContext(150_000, 4)
	perRef := func(scheme string) float64 {
		r, err := c.Merged(scheme)
		if err != nil {
			t.Fatal(err)
		}
		return r.PerRef("pipelined")
	}
	d1, wti, d0, dragon := perRef("Dir1NB"), perRef("WTI"), perRef("Dir0B"), perRef("Dragon")
	if !(d1 > wti && wti > d0 && d0 > dragon) {
		t.Errorf("scheme ordering broken: Dir1NB %.4f, WTI %.4f, Dir0B %.4f, Dragon %.4f",
			d1, wti, d0, dragon)
	}
	// Dir0B within 2x of Dragon (paper: within ~1.5x).
	if d0 > 2*dragon {
		t.Errorf("Dir0B (%.4f) not competitive with Dragon (%.4f)", d0, dragon)
	}
	// Figure 1: >75% of clean-block writes invalidate at most one cache
	// (paper: >85%; leave slack for the smaller trace).
	r, err := c.Merged("Dir0B")
	if err != nil {
		t.Fatal(err)
	}
	if pct := r.InvalClean.PctAtMost(1); pct < 75 {
		t.Errorf("only %.1f%% of clean writes invalidate <=1 cache", pct)
	}
	// DirNNB within 5% of Dir0B (paper: 1.6%).
	dn := perRef("DirNNB")
	if diff := (dn - d0) / d0; diff < 0 || diff > 0.05 {
		t.Errorf("DirNNB premium over Dir0B = %.3f, want small and positive", diff)
	}
}

func TestPaperConstants(t *testing.T) {
	for _, s := range PaperSchemes {
		if _, ok := PaperTable4[s]; !ok {
			t.Errorf("no Table 4 reference values for %s", s)
		}
		if _, ok := PaperCyclesPipelined[s]; !ok {
			t.Errorf("no Table 5 cumulative value for %s", s)
		}
	}
	if PaperCyclesPipelined["Dir0B"] >= PaperCyclesPipelined["WTI"] {
		t.Error("paper constants transcribed wrong")
	}
}

// TestReportDeterminism guards end-to-end reproducibility: two fresh
// contexts with identical parameters must render byte-identical output
// for every experiment that uses only the standard traces.
func TestReportDeterminism(t *testing.T) {
	for _, id := range []string{"table4", "fig1", "fig2", "qsens"} {
		exps, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		a, err := exps[0].Run(NewContext(40_000, 4))
		if err != nil {
			t.Fatal(err)
		}
		b, err := exps[0].Run(NewContext(40_000, 4))
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s output differs between identical fresh contexts", id)
		}
	}
}

func TestRenderHelpers(t *testing.T) {
	tbl := newTable("x", "a", "b")
	tbl.row("r1", "1") // short row gets padded
	out := tbl.String()
	if !strings.Contains(out, "r1") || !strings.Contains(out, "---") {
		t.Errorf("table render: %q", out)
	}
	if pct(0) != "-" || pct(1.5) != "1.50" {
		t.Error("pct formatting")
	}
	if cyc(0.12345) != "0.1234" && cyc(0.12345) != "0.1235" {
		t.Errorf("cyc formatting: %s", cyc(0.12345))
	}
	if ratio(1, 0) != "-" || ratio(3, 2) != "1.50" {
		t.Error("ratio formatting")
	}
	if !strings.Contains(withPaper(0.5, 0.4, true), "paper") {
		t.Error("withPaper should cite the paper value")
	}
	if strings.Contains(withPaper(0.5, 0.4, false), "paper") {
		t.Error("withPaper without a value should not cite one")
	}
}

// TestCancelledBaseReturnsErrors: an experiment reading traces under a
// cancelled base context fails with the cancellation, whether the trace
// is still to generate or already cached, and never panics.
func TestCancelledBaseReturnsErrors(t *testing.T) {
	c := smallContext()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c.WithBase(ctx)
	exps, err := Lookup("table3")
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for i := 0; i < 20; i++ {
		if _, err := c.RunExperiment(exps[0]); err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("run %d: %v, want context.Canceled", i, err)
			}
			failed++
		}
	}
	if failed == 0 {
		t.Error("20 runs under a cancelled context all succeeded")
	}
}
