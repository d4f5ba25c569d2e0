package report

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
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

// TestContextMergedCaches: a merge asked for twice is summed twice from
// the same cached results: the three traces are simulated once.
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
	if !reflect.DeepEqual(a, b) || c.eng.Stats().SimsRun != 3 {
		t.Errorf("merge not summed again from the cached results: %d sims", c.eng.Stats().SimsRun)
	}
	if _, err := c.Merged("NotAScheme"); err == nil {
		t.Error("unknown scheme accepted")
	}
}

// TestEveryExperimentRuns executes each registered experiment at a small
// size and sanity-checks its rendered output and the numbers behind it:
// at least one table, no empty table, and every value finite — a
// division by zero renders as NaN or Inf text, which a snippet check
// would let through.
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
			sec, err := e.Run(c)
			if err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			tables := 0
			for _, p := range sec.Parts {
				if p.Table == nil {
					continue
				}
				tables++
				if len(p.Table.Rows) == 0 {
					t.Errorf("%s: table %q has no rows", e.ID, p.Table.Header[0])
				}
				for _, r := range p.Table.Rows {
					for j, cell := range r.Cells {
						for _, v := range cell.Vals {
							if math.IsNaN(v) || math.IsInf(v, 0) {
								t.Errorf("%s: row %q, column %q holds %v", e.ID, r.Label, p.Table.Header[j+1], v)
							}
						}
					}
				}
			}
			if tables == 0 {
				t.Errorf("%s returned no table", e.ID)
			}
			out := sec.String()
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
// freshly simulated traces, read from the experiments' own tables: the
// numbers the report prints are the numbers checked.
func TestQualitativeResultsHold(t *testing.T) {
	c := NewContext(150_000, 4)
	sections := map[string]*Section{}
	cell := func(id, row, col string) float64 {
		t.Helper()
		if sections[id] == nil {
			exps, err := Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			if sections[id], err = exps[0].Run(c); err != nil {
				t.Fatal(err)
			}
		}
		v, err := sections[id].Value(0, row, col)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	fig2 := func(scheme string) float64 { return cell("fig2", scheme, "pipelined") }
	d1, wti, d0, dragon := fig2("Dir1NB"), fig2("WTI"), fig2("Dir0B"), fig2("Dragon")
	if !(d1 > wti && wti > d0 && d0 > dragon) {
		t.Errorf("scheme ordering broken: Dir1NB %.4f, WTI %.4f, Dir0B %.4f, Dragon %.4f",
			d1, wti, d0, dragon)
	}
	// Dir0B within 2x of Dragon (paper: within ~1.5x).
	if d0 > 2*dragon {
		t.Errorf("Dir0B (%.4f) not competitive with Dragon (%.4f)", d0, dragon)
	}
	// Figure 1: >75% of clean-block writes invalidate at most one cache
	// (paper: >85%; leave slack for the smaller trace) — rows 0 and 1.
	const share = "% of such writes"
	if pct := cell("fig1", "0", share) + cell("fig1", "1", share); pct < 75 {
		t.Errorf("only %.1f%% of clean writes invalidate <=1 cache", pct)
	}
	// DirNNB within 5% of Dir0B (paper: 1.6%).
	const perRef = "cycles/ref (pipelined)"
	d0, dn := cell("dirnnb", "Dir0B (broadcast)", perRef), cell("dirnnb", "DirNNB (sequential)", perRef)
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
		if a.String() != b.String() {
			t.Errorf("%s output differs between identical fresh contexts", id)
		}
	}
}

// TestRenderHelpers pins each way a value cell prints, one case per
// style, then the table aligner, a note and Value around them.
func TestRenderHelpers(t *testing.T) {
	for _, tc := range []struct {
		name string
		cell Cell
		want string
	}{
		{"cycles", cyc(0.12344), "0.1234"},
		{"dash for zero", pct(0), "-"},
		{"dash style, nonzero", pct(1.5), "1.50"},
		{"measured | paper", Cell{[]float64{4.781, 4.78}, "%.2f", VsPaper}, "4.78 | 4.78"},
		{"unmeasured | paper", Cell{[]float64{0, 0.08}, "%.2f", VsPaper}, "- | 0.08"},
		{"x (paper y)", num("%.4f (paper %.4f)", 0.05, 0.0491), "0.0500 (paper 0.0491)"},
		{"a / b", num("%.4f / %.4f", 0.3, 0.45), "0.3000 / 0.4500"},
		{"count (share)", num("%.0f (%.1f%%)", 1624, 51.68), "1624 (51.7%)"},
		{"count", count(int64(3142)), "3142"},
		{"no value", none, "-"},
		{"Figure 1 bar", Cell{Vals: []float64{9.9}, Style: Bar}, "####"},
	} {
		if got := tc.cell.String(); got != tc.want {
			t.Errorf("%s: %q, want %q", tc.name, got, tc.want)
		}
	}

	s := &Section{ID: "x", Title: "y"}
	tbl := s.table("x", "a", "bb")
	tbl.row("r1", count(1), pct(0))
	tbl.row("row2", count(22), pct(3))
	s.note("\nratio %s, %d%%\n", num("%.2f", 0.5), 7)
	want := "### x — y\n\n" +
		"x      a    bb\n" +
		"--------------\n" +
		"r1     1     -\n" +
		"row2  22  3.00\n" +
		"\nratio 0.50, 7%\n"
	if got := s.String(); got != want {
		t.Errorf("section:\n%s\nwant:\n%s", got, want)
	}
	if v, err := s.Value(0, "row2", "bb"); err != nil || v != 3 {
		t.Errorf("Value(row2, bb) = %v, %v; want 3", v, err)
	}
	// A measured | paper cell reads back its measured half.
	vs := &Section{ID: "vs"}
	vs.table("scheme", "cycles").row("Dir0B", Cell{[]float64{4.781, 4.78}, "%.2f", VsPaper})
	if v, err := vs.Value(0, "Dir0B", "cycles"); err != nil || v != 4.781 {
		t.Errorf("Value(Dir0B, cycles) = %v, %v; want the measured 4.781", v, err)
	}
	for _, bad := range []struct {
		table    int
		row, col string
	}{{1, "r1", "a"}, {0, "r3", "a"}, {0, "r1", "c"}} {
		if _, err := s.Value(bad.table, bad.row, bad.col); err == nil {
			t.Errorf("Value%+v found a number", bad)
		}
	}

	legend := &Table{Header: []string{"org", "4"}, Legend: "(bits)"}
	legend.row("full", count(5))
	if got, want := legend.String(), "org   4  (bits)\nfull  5\n"; got != want {
		t.Errorf("legend table = %q, want %q", got, want)
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

// Value reads back the first number of a value cell: in the section's
// table i (from 0), the row labelled row, the column headed col. Only
// tests read a number back; programs print the section.
func (s *Section) Value(i int, row, col string) (float64, error) {
	var tables []*Table
	for _, p := range s.Parts {
		if p.Table != nil {
			tables = append(tables, p.Table)
		}
	}
	if i >= 0 && i < len(tables) {
		t := tables[i]
		for _, r := range t.Rows {
			for j, h := range t.Header[1:] {
				if r.Label == row && strings.TrimSpace(h) == col && j < len(r.Cells) && len(r.Cells[j].Vals) > 0 {
					return r.Cells[j].Vals[0], nil
				}
			}
		}
	}
	return 0, fmt.Errorf("report: %s has no number at table %d, row %q, column %q", s.ID, i, row, col)
}
