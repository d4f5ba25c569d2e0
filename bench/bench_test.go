package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestContractMatchesBenchmarkJSON keeps BENCHMARK.json at the repository
// root equal to the tables in this package and inside the limits the
// benchmark contract sets.
func TestContractMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk contract
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatal(err)
	}
	want := currentContract()
	if !reflect.DeepEqual(onDisk, want) {
		t.Errorf("BENCHMARK.json differs from the package's tables; regenerate it with go run ./bench -contract")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		t.Helper()
		if !name.MatchString(n) || seen[n] {
			t.Errorf("metric or workload name %q is malformed or repeated", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
	}
	if n := len(want.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, contract allows 2 to 8", n)
	}
	for _, w := range want.Workloads {
		check(w.Name, "")
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range want.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if n := len(want.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, contract allows 1 to 128", n)
	}
	for _, m := range want.PerLayer {
		check(m.Name, m.Unit)
	}
}

// TestQuickRuns runs all four workloads at quick sizes, untraced and
// traced, and asserts the output schema: every declared metric present,
// finite, with its unit; end-to-end values positive; no failed ops; the
// traced ledger closed; no goroutines and no store directories left.
func TestQuickRuns(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	stderr = io.Discard
	defer func() { stderr = os.Stderr }()
	before := runtime.NumGoroutine()

	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			rec, err := measure(w, quickSizes, options{workload: w.name, seed: 1, seconds: 1, trace: trace, quick: true})
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.name, trace, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d",
					w.name, trace, rec.Correct, rec.Attempted, rec.Failed)
			}
			specs := specsFor(trace)
			if len(rec.Metrics) != len(specs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.name, trace, len(rec.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := rec.Metrics[s.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%d: %s missing", w.name, trace, s.Name)
				case m.Unit != s.Unit:
					t.Errorf("%s trace=%d: %s has unit %q, want %q", w.name, trace, s.Name, m.Unit, s.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0:
					t.Errorf("%s trace=%d: %s = %v", w.name, trace, s.Name, m.Value)
				case trace == 0 && m.Value == 0:
					t.Errorf("%s: end-to-end metric %s is zero", w.name, s.Name)
				}
			}
			if trace == 1 {
				if share := rec.Metrics["bench.unattributed_share"].Value; share > maxUnattributed {
					t.Errorf("%s: ledger leaves %.3f of op wall unattributed", w.name, share)
				}
				if len(rec.Spans) == 0 {
					t.Errorf("%s: traced run recorded no spans", w.name)
				}
			}
			if rec.Env.NumCPU < 1 || rec.Env.GOMAXPROCS < 1 || rec.Env.GoVersion == "" || rec.Env.TmpFS == "" {
				t.Errorf("%s: incomplete environment record %+v", w.name, rec.Env)
			}
		}
	}

	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		t.Errorf("leftover store directories: %v (%v)", left, err)
	}
	// Servers, workers and services are stopped and waited for; idle
	// HTTP connection goroutines may take a moment to notice.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines leaked:\n%s", n-before, buf[:runtime.Stack(buf, true)])
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %v, want 5.5", m)
	}
	if s := spread(xs); s != 1 {
		t.Errorf("spread = %v, want 1", s)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{1, 2, 3}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three = %v, %v; want 1, 3", q1, q3)
	}
	if v, beyond := percentile(xs, 90); v != 9 || beyond != 1 {
		t.Errorf("p90 = %v with %d beyond; want 9 with 1", v, beyond)
	}
}

func TestLedgerSelfTime(t *testing.T) {
	tr := &tracer{}
	tr.spans = []span{
		{Name: "op", Layer: layerHarness, Start: 0, End: 100, Parent: -1},
		{Name: "call", Layer: layerService, Start: 10, End: 90, Parent: 0},
		// Two overlapping async children, one running past its parent.
		{Name: "job", Layer: layerSim, Start: 20, End: 60, Parent: 1},
		{Name: "job", Layer: layerSim, Start: 40, End: 95, Parent: 1},
	}
	l := tr.account()
	if l.ops != 1 || l.opWall != 100 || l.unattributed != 20 {
		t.Errorf("ops=%d wall=%d unattributed=%d; want 1, 100, 20", l.ops, l.opWall, l.unattributed)
	}
	// The call is covered from 20 to 90, leaving 10 of its own; the jobs
	// keep their full 40 and 55.
	if l.selfTime[layerService] != 10 || l.selfTime[layerSim] != 95 {
		t.Errorf("self time service=%d sim=%d; want 10, 95", l.selfTime[layerService], l.selfTime[layerSim])
	}
}

func TestCompareVerdicts(t *testing.T) {
	write := func(name string, p50 []float64, failed int) string {
		path := filepath.Join(t.TempDir(), name)
		for _, v := range p50 {
			rec := &record{Workload: "sim_replay", Attempted: 10, Failed: failed, Metrics: map[string]metricValue{}}
			for _, m := range endToEnd {
				rec.Metrics[m.Name] = metricValue{Value: 100, Unit: m.Unit}
			}
			rec.Metrics["op_p50_ms"] = metricValue{Value: v, Unit: "ms"}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shifted := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{100, 180, 40, 100, 190, 30, 100, 170, 50, 100}
	parent := write("parent.jsonl", steady, 0)
	for _, c := range []struct {
		name    string
		change  string
		verdict string
		fails   bool
	}{
		{"same", write("same.jsonl", steady, 0), " ok", false},
		{"slower", write("slower.jsonl", shifted(1.4), 0), "REGRESSION", true},
		{"faster", write("faster.jsonl", shifted(0.8), 0), "gain", false},
		{"within bound", write("within.jsonl", shifted(1.2), 0), " ok", false},
		{"failing", write("failing.jsonl", steady, 1), "MORE FAILURES", true},
	} {
		var out bytes.Buffer
		err := compareFiles(&out, parent, c.change)
		if (err != nil) != c.fails {
			t.Errorf("%s: err = %v, want failure %v", c.name, err, c.fails)
		}
		if !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: no %q verdict in\n%s", c.name, c.verdict, out.String())
		}
	}
	var out bytes.Buffer
	if err := compareFiles(&out, write("noisy.jsonl", noisy, 0), write("slower.jsonl", shifted(1.4), 0)); err != nil {
		t.Errorf("a noisy parent must leave the metric unresolved, not regressed: %v", err)
	}
	if !strings.Contains(out.String(), "unresolved") {
		t.Errorf("no unresolved verdict in\n%s", out.String())
	}
}
