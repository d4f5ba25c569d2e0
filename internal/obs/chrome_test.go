package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// epoch anchors the hand-written journals below.
var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// jline writes one journal line at us microseconds past epoch; attrs is
// the JSON of its remaining attributes.
func jline(us int64, msg, attrs string) string {
	ts := epoch.Add(time.Duration(us) * time.Microsecond).Format(time.RFC3339Nano)
	if attrs != "" {
		attrs = "," + attrs
	}
	return fmt.Sprintf(`{"time":%q,"level":"INFO","msg":%q%s}`, ts, msg, attrs)
}

type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	OtherData       ChromeStats   `json:"otherData"`
}

// render renders journal lines and decodes the result, indexing its
// timeline events by name.
func render(t *testing.T, journal ...string) (chromeDoc, map[string]chromeEvent) {
	t.Helper()
	lines := readLines(t, []byte(strings.Join(journal, "\n")))
	var buf bytes.Buffer
	st, err := WriteChrome(&buf, lines)
	if err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("rendered trace is not valid JSON: %v\n%s", err, buf.Bytes())
	}
	if doc.OtherData != st {
		t.Errorf("otherData %+v, returned stats %+v", doc.OtherData, st)
	}
	byName := map[string]chromeEvent{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "M" {
			byName[ev.Name] = ev
		}
	}
	return doc, byName
}

// TestWriteChromeFormat: span lines become complete events named by
// their "name" (else their msg), with the msg's first word as category,
// their other attributes as args and their parent by rendered ID;
// instant lines become thread-scoped instants; other lines vanish.
func TestWriteChromeFormat(t *testing.T) {
	doc, ev := render(t,
		jline(0, "job.start", `"pspan":"a"`),
		jline(50, "job.retry", `"span":"c","pspan":"b","attempt":0`),
		jline(80, "job.attempt", `"span":"b","pspan":"a","dur_us":60,"name":"attempt:0"`),
		jline(100, "job.finish", `"span":"a","dur_us":100,"name":"sim:Dir1B@pops","kind":"sim"`),
	)
	if doc.DisplayTimeUnit != "ms" || doc.OtherData != (ChromeStats{Spans: 2, Instants: 1}) {
		t.Errorf("displayTimeUnit %q, stats %+v", doc.DisplayTimeUnit, doc.OtherData)
	}
	job, att, retry := ev["sim:Dir1B@pops"], ev["attempt:0"], ev["job.retry"]
	if job.Ph != "X" || job.Cat != "job" || job.TS != 0 || job.Dur != 100 || job.Args["kind"] != "sim" {
		t.Errorf("job span = %+v", job)
	}
	if att.TS != 20 || att.Dur != 60 || att.Args["parent"] != float64(job.ID) {
		t.Errorf("attempt span = %+v, want [20, 80] under %d", att, job.ID)
	}
	if retry.Ph != "i" || retry.Scope != "t" || retry.TS != 50 || retry.Args["parent"] != float64(att.ID) ||
		retry.Args["attempt"] != float64(0) {
		t.Errorf("retry instant = %+v", retry)
	}
	for _, e := range []chromeEvent{job, att, retry} {
		if e.PID != 1 || e.TID != 1 {
			t.Errorf("%q on pid %d tid %d, want the nesting on 1/1", e.Name, e.PID, e.TID)
		}
		for _, k := range []string{"span", "pspan", "dur_us", "time", "msg", "name"} {
			if _, ok := e.Args[k]; ok {
				t.Errorf("%q repeats %q in args", e.Name, k)
			}
		}
	}
	if _, ok := ev["job.start"]; ok {
		t.Error("an event line without a span was rendered")
	}
}

// TestWriteChromeEmptyJournal: a journal without span lines renders a
// valid trace whose event list is [] — never null, which viewers reject.
func TestWriteChromeEmptyJournal(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteChrome(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil || doc.TraceEvents == nil {
		t.Fatalf("empty journal rendered %s (%v)", buf.Bytes(), err)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "M" {
			t.Errorf("empty journal rendered %+v", ev)
		}
	}
}

// TestWriteChromeFile: the CLIs' export writes the file, and fails on an
// unwritable path.
func TestWriteChromeFile(t *testing.T) {
	journal := []byte(jline(10, "sim.run", `"span":"1","dur_us":10`) + "\n")
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := WriteChromeFile(path, journal); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || !strings.Contains(string(data), `"name":"sim.run"`) {
		t.Errorf("trace file = %s (%v)", data, err)
	}
	if err := WriteChromeFile(filepath.Join(t.TempDir(), "no", "dir", "trace.json"), journal); err == nil {
		t.Error("WriteChromeFile to a missing directory succeeded")
	}
}

// TestSpanLineStartsDurBeforeItsTime: a span is retro-dated by its
// line — a lease written when it resolves starts dur_us before — and a
// negative dur_us renders as zero.
func TestSpanLineStartsDurBeforeItsTime(t *testing.T) {
	_, ev := render(t,
		jline(1000, "dist.lease", `"span":"1","dur_us":900,"name":"lease"`),
		jline(2000, "dist.queue", `"span":"2","dur_us":-5,"name":"queue"`),
	)
	if l := ev["lease"]; l.TS != 0 || l.Dur != 900 {
		t.Errorf("lease span = [%v, +%v], want [0, +900] from the earliest start", l.TS, l.Dur)
	}
	if q := ev["queue"]; q.TS != 1900 || q.Dur != 0 {
		t.Errorf("negative-duration span = [%v, +%v], want [1900, +0]", q.TS, q.Dur)
	}
}

// TestChromeOrphanRenderedAsRoot: a pspan naming no span of the journal
// renders its span as a root and counts it; a duplicated span ID keeps
// its first span as the parent of its children.
func TestChromeOrphanRenderedAsRoot(t *testing.T) {
	doc, ev := render(t,
		jline(10, "job.finish", `"span":"1","pspan":"dead","dur_us":10,"name":"orphan"`),
		jline(30, "job.finish", `"span":"2","dur_us":10,"name":"first"`),
		jline(40, "job.finish", `"span":"2","dur_us":5,"name":"second"`),
		jline(29, "job.attempt", `"span":"3","pspan":"2","dur_us":5,"name":"child"`),
	)
	if doc.OtherData.Orphans != 1 {
		t.Errorf("orphans = %d, want 1", doc.OtherData.Orphans)
	}
	if _, ok := ev["orphan"].Args["parent"]; ok {
		t.Errorf("orphan span kept a parent: %+v", ev["orphan"])
	}
	if ev["child"].Args["parent"] != float64(ev["first"].ID) {
		t.Errorf("child's parent = %v, want the first span %d", ev["child"].Args["parent"], ev["first"].ID)
	}
}

// TestChromeRowsReused: spans that overlap without nesting go to rows
// of their own, and a row frees up once its spans end.
func TestChromeRowsReused(t *testing.T) {
	_, ev := render(t,
		jline(100, "sim.run", `"span":"1","dur_us":100,"name":"a"`),
		jline(150, "sim.run", `"span":"2","dur_us":100,"name":"b"`),
		jline(300, "sim.run", `"span":"3","dur_us":100,"name":"c"`),
	)
	if ev["a"].TID != 1 || ev["b"].TID != 2 || ev["c"].TID != 1 {
		t.Errorf("rows a=%d b=%d c=%d, want 1, 2, 1", ev["a"].TID, ev["b"].TID, ev["c"].TID)
	}
}

// TestChromeProcessPerWorker: the trace names one process per source —
// "dirsim" for the coordinator, "dirsimw:<worker>" for each worker in
// name order — and names every row of each, so Perfetto draws one
// labelled group per process.
func TestChromeProcessPerWorker(t *testing.T) {
	doc, _ := render(t,
		jline(1000, "job.finish", `"span":"1","dur_us":1000,"name":"sweep"`),
		jline(400, "job.finish", `"span":"2","pspan":"1","dur_us":200,"name":"w2job","worker":"w2","skew_ns":0`),
		jline(900, "job.finish", `"span":"3","pspan":"1","dur_us":100,"name":"w1job","worker":"w1","skew_ns":0`),
	)
	procs, rows := map[int]string{}, map[int]int{}
	for _, e := range doc.TraceEvents {
		switch e.Name {
		case "process_name":
			procs[e.PID] = e.Args["name"].(string)
		case "thread_name":
			rows[e.PID]++
		}
	}
	if len(procs) != 3 || procs[1] != "dirsim" || procs[2] != "dirsimw:w1" || procs[3] != "dirsimw:w2" {
		t.Errorf("processes = %v", procs)
	}
	for pid := 1; pid <= 3; pid++ {
		if rows[pid] != 1 {
			t.Errorf("process %d names %d rows, want 1", pid, rows[pid])
		}
	}
}

// TestChromeShippedLinesOnWorkerRows: lines a worker shipped home render
// on that worker's process, shifted onto the coordinator's clock by
// skew_ns; the coordinator's own lines stay on process 1 even when they
// name a worker.
func TestChromeShippedLinesOnWorkerRows(t *testing.T) {
	_, ev := render(t,
		jline(1000, "dist.lease", `"span":"1","dur_us":1000,"name":"lease","worker":"w2"`),
		jline(400, "job.finish", `"span":"2","pspan":"1","dur_us":200,"name":"w2job","worker":"w2","skew_ns":500000`),
		jline(900, "job.finish", `"span":"3","pspan":"1","dur_us":100,"name":"w1job","worker":"w1","skew_ns":0`),
	)
	if ev["lease"].PID != 1 || ev["w1job"].PID != 2 || ev["w2job"].PID != 3 {
		t.Errorf("pids lease=%d w1=%d w2=%d", ev["lease"].PID, ev["w1job"].PID, ev["w2job"].PID)
	}
	if w2 := ev["w2job"]; w2.TS != 700 || w2.Args["parent"] != float64(ev["lease"].ID) {
		t.Errorf("w2's span = %+v, want ts 700 (skew-corrected) under the lease", w2)
	}
}

// TestChromeWorkerSpansNestUnderLease: a worker's shipped spans keep
// their own structure and hang under the coordinator's lease span by
// journal ID alone — no re-parenting — with every rendered ID distinct
// and no parent edge left dangling.
func TestChromeWorkerSpansNestUnderLease(t *testing.T) {
	doc, ev := render(t,
		jline(1000, "dist.lease", `"span":"a1","dur_us":1000,"name":"dist:lease"`),
		jline(900, "job.finish", `"span":"b1","pspan":"a1","dur_us":800,"name":"sim:Dir1NB@pops","worker":"w1","skew_ns":0`),
		jline(850, "job.attempt", `"span":"b2","pspan":"b1","dur_us":600,"name":"attempt:0","worker":"w1","skew_ns":0`),
		jline(500, "sim.chunk", `"span":"b3","pspan":"b2","name":"chunk","worker":"w1","skew_ns":0`),
	)
	if doc.OtherData != (ChromeStats{Spans: 3, Instants: 1}) {
		t.Errorf("stats %+v, want 3 spans, 1 instant, no orphans", doc.OtherData)
	}
	lease, root, child, inst := ev["dist:lease"], ev["sim:Dir1NB@pops"], ev["attempt:0"], ev["chunk"]
	if root.Args["parent"] != float64(lease.ID) {
		t.Errorf("worker root's parent = %v, want the lease %d", root.Args["parent"], lease.ID)
	}
	if child.Args["parent"] != float64(root.ID) || inst.Args["parent"] != float64(child.ID) {
		t.Errorf("worker structure lost: attempt under %v (root %d), chunk under %v (attempt %d)",
			child.Args["parent"], root.ID, inst.Args["parent"], child.ID)
	}
	seen := map[int]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" {
			continue
		}
		if seen[e.ID] {
			t.Errorf("rendered ID %d used twice", e.ID)
		}
		seen[e.ID] = true
	}
}

// TestLineAtShiftsShippedLines: At is a line's time on the coordinator's
// clock — shipped lines shift by their skew stamp, local ones do not.
func TestLineAtShiftsShippedLines(t *testing.T) {
	lines := readLines(t, []byte(jline(0, "a", `"skew_ns":-2000`)+"\n"+jline(0, "b", "")))
	if !lines[0].Shipped() || !lines[0].At().Equal(epoch.Add(-2*time.Microsecond)) {
		t.Errorf("shipped line at %v", lines[0].At())
	}
	if lines[1].Shipped() || !lines[1].At().Equal(epoch) {
		t.Errorf("local line at %v", lines[1].At())
	}
}

// TestCheckFleet: the fleet journal's books balance and every shipped
// lease reference names a granted lease, or the check says which not.
func TestCheckFleet(t *testing.T) {
	lines := readLines(t, []byte(strings.Join([]string{
		jline(0, "job.queue", `"key":"k1"`),
		jline(0, "job.queue", `"key":"k2"`),
		jline(1, "job.lease", `"lease":"L1"`),
		jline(2, "job.finish", `"lease":"L1","worker":"w1","skew_ns":0`),
		jline(3, "result.accept", `"lease":"L1"`),
		jline(4, "job.degrade", `"key":"k2"`),
	}, "\n")))
	if c := CheckFleet(lines); !c.OK() || c.Queued != 2 || c.Accepted != 1 || c.Degraded != 1 {
		t.Errorf("consistent journal: %+v", c)
	}
	lines = append(lines, readLines(t, []byte(jline(5, "job.finish", `"lease":"L9","worker":"w1","skew_ns":0`)))...)
	lines = append(lines, readLines(t, []byte(jline(6, "job.queue", `"key":"k3"`)))...)
	c := CheckFleet(lines)
	if c.Balanced() || len(c.Orphans) != 1 || c.Orphans[0].Str("lease") != "L9" || c.OK() {
		t.Errorf("inconsistent journal passed: %+v", c)
	}
}

// FuzzChromeFromJournal: whatever a journal holds — shipped fleet lines,
// truncated or foreign lines, duplicate, zero or malformed span IDs,
// negative durations, parents that name nothing — the renderer writes
// valid JSON with one event per line carrying a span ID, every parent
// reference it emits names a rendered span, and every span line whose
// pspan it could not resolve is drawn as a root and counted.
func FuzzChromeFromJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, journal []byte) {
		lines, _, err := ReadJournal(bytes.NewReader(journal))
		if err != nil {
			return // a line past the reader's 4 MiB bound
		}
		var buf bytes.Buffer
		st, err := WriteChrome(&buf, lines)
		if err != nil {
			t.Fatal(err)
		}
		var doc chromeDoc
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("rendered trace is not valid JSON: %v", err)
		}
		spans := map[float64]bool{}
		for _, ev := range doc.TraceEvents {
			if ev.Ph == "X" {
				spans[float64(ev.ID)] = true
			}
		}
		rendered, parented := 0, 0
		for _, ev := range doc.TraceEvents {
			if ev.Ph == "M" {
				continue
			}
			rendered++
			if p, ok := ev.Args["parent"]; ok {
				parented++
				if id, _ := p.(float64); !spans[id] {
					t.Fatalf("%q names parent %v, which is no rendered span", ev.Name, p)
				}
			}
		}
		id := func(l Line, key string) uint64 {
			if v, err := strconv.ParseUint(l.Str(key), 16, 64); err == nil {
				return v
			}
			return 0
		}
		want, withParent := 0, 0
		for _, l := range lines {
			if id(l, "span") == 0 {
				continue
			}
			want++
			if id(l, "pspan") != 0 {
				withParent++
			}
		}
		if rendered != want || st.Spans+st.Instants != want {
			t.Fatalf("rendered %d events (stats %+v) from %d span lines", rendered, st, want)
		}
		if parented+st.Orphans != withParent {
			t.Fatalf("%d parented + %d orphans, but %d span lines name a parent", parented, st.Orphans, withParent)
		}
	})
}
