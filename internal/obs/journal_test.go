package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// decodeLines decodes every JSONL line into a generic map, failing the
// test on any malformed line.
func decodeLines(t *testing.T, data []byte) []map[string]any {
	t.Helper()
	var out []map[string]any
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", len(out)+1, err, sc.Text())
		}
		out = append(out, m)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestJournalRoundTrip writes typed events and decodes them back from
// the JSONL stream, checking the envelope and attribute values survive.
func TestJournalRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	j.Event("run.start", "run", "all", "refs", 400000)
	j.Event("job.finish", "job", "sim:Dir0B@pops", "kind", "sim",
		"dur_us", int64(1234), "cache_hit", false)
	j.Error("error", errors.New("boom"), "failed", "table4")

	events := decodeLines(t, buf.Bytes())
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	if events[0]["msg"] != "run.start" || events[0]["run"] != "all" ||
		events[0]["refs"] != float64(400000) {
		t.Errorf("run.start event wrong: %v", events[0])
	}
	if _, ok := events[0]["time"]; !ok {
		t.Error("event missing time field")
	}
	if events[1]["job"] != "sim:Dir0B@pops" || events[1]["dur_us"] != float64(1234) ||
		events[1]["cache_hit"] != false {
		t.Errorf("job.finish event wrong: %v", events[1])
	}
	if events[2]["level"] != "ERROR" || events[2]["error"] != "boom" ||
		events[2]["failed"] != "table4" {
		t.Errorf("error event wrong: %v", events[2])
	}
}

func TestJournalNilIsNoop(t *testing.T) {
	var j *Journal
	j.Event("x")
	j.Error("y", errors.New("e"))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestJournalConcurrentWritersProduceWholeLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := OpenJournal(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				j.Event("job.finish", "g", g, "i", i)
			}
		}()
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	events := decodeLines(t, data)
	if len(events) != 8*50 {
		t.Errorf("got %d events, want %d", len(events), 8*50)
	}
}

// atomicFailWriter accepts whole writes until its budget is spent, then
// rejects them entirely — modelling a sink that fails between records (a
// closed pipe, a full disk under line-buffered writes). It never takes a
// partial write, the property the journal relies on for valid output.
type atomicFailWriter struct {
	budget int
	buf    bytes.Buffer
}

func (w *atomicFailWriter) Write(p []byte) (int, error) {
	if w.buf.Len()+len(p) > w.budget {
		return 0, errors.New("sink full")
	}
	return w.buf.Write(p)
}

// TestJournalTruncatedSinkKeepsValidJSONL starves the journal's sink
// mid-run: everything that did land must still be valid JSONL (dropped
// events are fine, spliced half-lines are not), and the journal must
// keep accepting events without panicking after the sink dies.
func TestJournalTruncatedSinkKeepsValidJSONL(t *testing.T) {
	w := &atomicFailWriter{budget: 700}
	j := NewJournal(w)
	for i := 0; i < 50; i++ {
		j.Event("job.finish", "i", i, "pad", strings.Repeat("x", 24))
	}
	events := decodeLines(t, w.buf.Bytes())
	if len(events) == 0 || len(events) >= 50 {
		t.Fatalf("got %d events; the sink budget should admit some but not all", len(events))
	}
	for _, m := range events {
		if int(m["schema"].(float64)) != SchemaVersion {
			t.Fatalf("event missing schema %d: %v", SchemaVersion, m)
		}
	}
}

// lineAtomicWriter fails the test if any Write is not exactly one
// complete, self-contained JSON line. That atomicity — one record, one
// Write, one line — is what makes a crash-truncated journal parsable up
// to its last newline and concurrent writers unable to interleave.
type lineAtomicWriter struct {
	t  *testing.T
	mu sync.Mutex
	n  int
}

func (w *lineAtomicWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(p) == 0 || p[len(p)-1] != '\n' || bytes.IndexByte(p[:len(p)-1], '\n') >= 0 {
		w.t.Errorf("record is not one complete line: %q", p)
	}
	var m map[string]any
	if err := json.Unmarshal(p, &m); err != nil {
		w.t.Errorf("record is not self-contained JSON: %v\n%s", err, p)
	}
	w.n++
	return len(p), nil
}

// TestJournalWritesAreLineAtomic pins the one-record-one-Write-one-line
// property under concurrency: every write the sink sees parses on its
// own, so a reader of a concurrently written or crash-truncated journal
// only ever loses the trailing partial line.
func TestJournalWritesAreLineAtomic(t *testing.T) {
	w := &lineAtomicWriter{t: t}
	j := NewJournal(w)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				j.Event("job.finish", "g", g, "i", i)
				j.Error("job.retry", errors.New("transient"), "g", g)
			}
		}()
	}
	wg.Wait()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.n != 8*25*2 {
		t.Errorf("sink saw %d writes, want %d", w.n, 8*25*2)
	}
}

func TestOpenJournalStderrAliases(t *testing.T) {
	for _, alias := range []string{"-", "stderr"} {
		j, err := OpenJournal(alias, 0, 0)
		if err != nil {
			t.Fatalf("%q: %v", alias, err)
		}
		if j.closer != nil {
			t.Errorf("%q: journal owns a closer for a borrowed stream", alias)
		}
	}
}

func TestJournalErrorLevelIsFilterable(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	j.Error("error", errors.New("two experiments failed"))
	if !strings.Contains(buf.String(), `"level":"ERROR"`) {
		t.Errorf("error event not emitted at error level: %s", buf.String())
	}
}

// TestJournalThroughContext: WithJournal/JournalFrom carry a journal the
// way WithTrace carries a trace context; a nil journal leaves the context
// untouched.
func TestJournalThroughContext(t *testing.T) {
	ctx := context.Background()
	if JournalFrom(ctx) != nil {
		t.Fatal("background context claims a journal")
	}
	if WithJournal(ctx, nil) != ctx {
		t.Error("nil journal changed the context")
	}
	j := NewJournal(io.Discard)
	if got := JournalFrom(WithJournal(ctx, j)); got != j {
		t.Errorf("JournalFrom = %p, want %p", got, j)
	}
}

func TestRepeatedKey(t *testing.T) {
	for line, want := range map[string]string{
		`{"a":1,"b":{"a":2},"c":[{"a":3}]}`: "",
		`{"trace":"x","k":"v","trace":"x"}`: "trace",
		`{"a":{"x":1,"x":2},"a":0}`:         "a",
	} {
		got, err := RepeatedKey([]byte(line))
		if err != nil || got != want {
			t.Errorf("RepeatedKey(%s) = %q, %v; want %q", line, got, err, want)
		}
	}
	if _, err := RepeatedKey([]byte(`["a"]`)); err == nil {
		t.Error("a non-object line was accepted")
	}
}
