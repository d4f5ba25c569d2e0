package engine

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"dirsim/internal/faults"
	"dirsim/internal/obs"
	"dirsim/internal/store"
	"dirsim/internal/workload"
)

// journaled returns a context carrying a journal that writes into buf.
// A non-empty trace also puts that trace on the context and tags the
// journal with it, the way every binary pairs the two.
func journaled(buf *bytes.Buffer, trace string) context.Context {
	jnl := obs.NewJournal(buf)
	ctx := context.Background()
	if trace != "" {
		tc := obs.TraceContext{Trace: trace}
		ctx = obs.WithTrace(ctx, tc)
		jnl = jnl.WithTrace(tc)
	}
	return obs.WithJournal(ctx, jnl)
}

// journalLines decodes every line of a journal, failing the test on a
// line that is not JSON or that repeats a key.
func journalLines(t *testing.T, data []byte) []map[string]any {
	t.Helper()
	var out []map[string]any
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if k, err := obs.RepeatedKey(sc.Bytes()); err != nil || k != "" {
			t.Fatalf("journal line repeats %q (%v): %s", k, err, sc.Text())
		}
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("journal line is not JSON: %v\n%s", err, sc.Text())
		}
		out = append(out, m)
	}
	return out
}

// withMsg returns the lines whose msg is msg.
func withMsg(lines []map[string]any, msg string) []map[string]any {
	var out []map[string]any
	for _, l := range lines {
		if l["msg"] == msg {
			out = append(out, l)
		}
	}
	return out
}

// requireTrace asserts that msg occurs and every such line carries trace.
func requireTrace(t *testing.T, lines []map[string]any, msg, trace string) {
	t.Helper()
	got := withMsg(lines, msg)
	if len(got) == 0 {
		t.Fatalf("no %s lines journaled", msg)
	}
	for _, l := range got {
		if l["trace"] != trace {
			t.Fatalf("%s line carries trace %v, want %q: %v", msg, l["trace"], trace, l)
		}
	}
}

func tracePropConfigs() []workload.Config { return workload.StandardConfigs(2, 5_000) }

// TestTracePropagationThroughJobsAndCache: every engine line of a traced
// submission lands in that submission's journal with its trace, and each
// job.finish is its job's span on the rendered timeline. A second,
// differently traced submission of identical work is all cache hits, and
// its lines land in ITS journal, not the first one's (the hit belongs to
// whoever asked).
func TestTracePropagationThroughJobsAndCache(t *testing.T) {
	e := New(Options{})
	cfgs := tracePropConfigs()

	var b1 bytes.Buffer
	if _, err := e.Merge(journaled(&b1, "run-1"), Sequential{}, [][]SimSpec{over("Dir0B", cfgs, false)}); err != nil {
		t.Fatal(err)
	}
	lines := journalLines(t, b1.Bytes())
	for _, msg := range []string{"job.scheduled", "job.start", "job.finish"} {
		requireTrace(t, lines, msg, "run-1")
	}
	jobSpans := map[string]int{}
	for _, ev := range renderTrace(t, b1.Bytes()).TraceEvents {
		if _, job := ev.Args["kind"]; ev.Ph == "X" && job {
			jobSpans[ev.Name]++
		}
	}
	for _, l := range withMsg(lines, "job.finish") {
		if _, ok := l["span"].(string); !ok || jobSpans[l["job"].(string)] == 0 {
			t.Errorf("job.finish %v is not a span of the rendered trace", l["job"])
		}
	}

	n1 := b1.Len()
	var b2 bytes.Buffer
	if _, err := e.Merge(journaled(&b2, "run-2"), Sequential{}, [][]SimSpec{over("Dir0B", cfgs, false)}); err != nil {
		t.Fatal(err)
	}
	if b1.Len() != n1 {
		t.Error("the second submission wrote into the first one's journal")
	}
	lines2 := journalLines(t, b2.Bytes())
	requireTrace(t, lines2, "job.finish", "run-2")
	hits := 0
	for _, l := range withMsg(lines2, "job.finish") {
		if l["cache_hit"] == true {
			hits++
		}
	}
	if hits == 0 {
		t.Error("re-submission journaled no cache-hit job.finish lines")
	}
}

// TestTracePropagationThroughStoreTiers: durable-store loads and stores
// are journaled in the requesting submission's journal — a cold engine's
// write-throughs under the cold trace, and a second engine warm-starting
// from the same store under its own, with hit set. Every line names a
// spec's result key, never a trace.
func TestTracePropagationThroughStoreTiers(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := tracePropConfigs()
	results := map[string]bool{}
	for _, cfg := range cfgs {
		results[SimSpec{Trace: cfg, Scheme: "Dir0B"}.Key().String()] = true
	}
	requireResults := func(lines []map[string]any) {
		t.Helper()
		for _, l := range append(withMsg(lines, "store.load"), withMsg(lines, "store.store")...) {
			if l["kind"] != "result" || !results[l["key"].(string)] {
				t.Errorf("store line for %v (kind %v), which is not a result key", l["key"], l["kind"])
			}
		}
	}

	var cold bytes.Buffer
	e1 := New(Options{Store: st})
	if _, err := e1.Merge(journaled(&cold, "cold"), Sequential{}, [][]SimSpec{over("Dir0B", cfgs, false)}); err != nil {
		t.Fatal(err)
	}
	lines := journalLines(t, cold.Bytes())
	requireTrace(t, lines, "store.store", "cold")
	requireTrace(t, lines, "store.load", "cold") // misses are journaled too
	requireResults(lines)

	var warm bytes.Buffer
	e2 := New(Options{Store: st})
	if _, err := e2.Merge(journaled(&warm, "warm"), Sequential{}, [][]SimSpec{over("Dir0B", cfgs, false)}); err != nil {
		t.Fatal(err)
	}
	lines = journalLines(t, warm.Bytes())
	requireTrace(t, lines, "store.load", "warm")
	requireResults(lines)
	hits := 0
	for _, l := range withMsg(lines, "store.load") {
		if l["hit"] == true {
			hits++
		}
	}
	if hits == 0 {
		t.Error("warm engine journaled no store.load hits")
	}
	if n := len(withMsg(lines, "store.store")); n != 0 {
		t.Errorf("warm engine journaled %d store.store lines, want 0", n)
	}
}

// TestTracePropagationThroughRetries: a job that fails and re-attempts
// journals every job.retry under its submission's trace.
func TestTracePropagationThroughRetries(t *testing.T) {
	e := New(Options{Retries: 2, Faults: faults.New(faults.Config{Seed: 1, Spurious: 1})})
	var buf bytes.Buffer
	// Every attempt fails spuriously, so the run errors; the retry lines
	// along the way are what we are after.
	_, _ = e.Merge(journaled(&buf, "retry-run"), Sequential{}, [][]SimSpec{over("Dir0B", tracePropConfigs(), false)})
	requireTrace(t, journalLines(t, buf.Bytes()), "job.retry", "retry-run")
}

// TestUntracedSubmissionStaysUntraced: without a TraceContext the lines
// carry no trace, span or remote parent (no fabricated IDs).
func TestUntracedSubmissionStaysUntraced(t *testing.T) {
	e := New(Options{})
	var buf bytes.Buffer
	if _, err := e.Merge(journaled(&buf, ""), Sequential{}, [][]SimSpec{over("Dir0B", tracePropConfigs(), false)}); err != nil {
		t.Fatal(err)
	}
	lines := journalLines(t, buf.Bytes())
	if len(withMsg(lines, "job.finish")) == 0 {
		t.Fatal("no job.finish lines journaled")
	}
	for _, l := range lines {
		for _, k := range []string{"trace", "span", "pspan"} {
			if _, ok := l[k]; ok {
				t.Errorf("untraced line carries %q: %v", k, l)
			}
		}
	}
}

// TestRemoteParentJournaled: work running under a remote parent (a fleet
// worker's job) journals it as pspan beside its own span.
func TestRemoteParentJournaled(t *testing.T) {
	e := New(Options{})
	var buf bytes.Buffer
	tc := obs.TraceContext{Trace: "fleet", Parent: 0xbeef}
	ctx := obs.WithJournal(obs.WithTrace(context.Background(), tc), obs.NewJournal(&buf).WithTrace(tc))
	if _, err := e.Results(ctx, Sequential{}, []SimSpec{{Trace: tracePropConfigs()[0], Scheme: "Dir0B"}}); err != nil {
		t.Fatal(err)
	}
	for _, l := range withMsg(journalLines(t, buf.Bytes()), "job.finish") {
		if l["pspan"] != "beef" || l["span"] == nil || l["trace"] != "fleet" {
			t.Errorf("job.finish under a remote parent = %v", l)
		}
	}
}

// TestNoJournalNoAllocs: an engine reporting to neither an Observer nor
// a journal renders no event attributes.
func TestNoJournalNoAllocs(t *testing.T) {
	e := New(Options{})
	j := &job{ID: "sim:Dir0B@pops"}
	ctx := obs.WithTrace(context.Background(), obs.TraceContext{Trace: "t", Span: 7})
	allocs := testing.AllocsPerRun(100, func() {
		for _, ev := range []string{"job.scheduled", "job.start", "job.finish"} {
			e.jobEvent(ctx, obs.JournalFrom(ctx), ev, j)
		}
	})
	if allocs != 0 {
		t.Errorf("unjournaled job events allocate %.0f times per job", allocs)
	}
}
