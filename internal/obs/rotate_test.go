package obs

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRotatingWriterShiftsSegments: the live file stays under maxBytes,
// older segments shift path.1 → path.2 …, the oldest beyond keep falls
// off, and no line is ever split across segments or lost within the
// kept window.
func TestRotatingWriterShiftsSegments(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.jsonl")
	line := []byte(strings.Repeat("x", 39) + "\n")  // 40 bytes
	rw, err := newRotatingWriter(path, 100, 2, nil) // 2 lines per segment
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if _, err := rw.Write(line); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	// 9 lines, 2 per full segment: 4 rotations; keep=2 retains the last
	// two rotated segments plus the live file.
	if got := rw.rotations; got != 4 {
		t.Errorf("rotations = %d, want 4", got)
	}
	segs := SegmentPaths(path)
	want := []string{path + ".2", path + ".1", path}
	if len(segs) != len(want) {
		t.Fatalf("SegmentPaths = %v, want %v", segs, want)
	}
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("SegmentPaths = %v, want %v", segs, want)
		}
	}
	if _, err := os.Stat(path + ".3"); !os.IsNotExist(err) {
		t.Errorf("segment beyond keep survived: %v", err)
	}
	var total int
	for _, s := range segs {
		b, err := os.ReadFile(s)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(b); n%40 != 0 {
			t.Errorf("%s holds %d bytes — a line was split", s, n)
		}
		if int64(len(b)) > 100 {
			t.Errorf("%s is %d bytes, over the 100-byte bound", s, len(b))
		}
		total += len(b) / 40
	}
	// keep=2 bounds retention: the newest 2 full segments plus the live
	// tail survive; older lines fell off by design.
	if total != 5 {
		t.Errorf("kept %d lines, want 5 (2+2+1)", total)
	}
}

// TestRotatingWriterOversizedLine: a single line larger than maxBytes is
// written whole anyway — rotation bounds growth, it never drops data.
func TestRotatingWriterOversizedLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	rw, err := newRotatingWriter(path, 10, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	big := []byte(strings.Repeat("y", 50) + "\n")
	if _, err := rw.Write(big); err != nil {
		t.Fatal(err)
	}
	rw.Close()
	b, _ := os.ReadFile(path)
	if !bytes.Equal(b, big) {
		t.Errorf("oversized line mangled: %d bytes", len(b))
	}
}

// TestJournalRotationEvent: a rotated OpenJournal stamps each fresh
// segment with a journal.rotated event (fired re-entrantly from the
// rotation callback), and the rotated set reads back as one stream.
func TestJournalRotationEvent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := OpenJournal(path, 256, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		j.Event("tick", "n", i)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var all []byte
	for _, s := range SegmentPaths(path) {
		b, err := os.ReadFile(s)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, b...)
	}
	if !bytes.Contains(all, []byte(`"journal.rotated"`)) {
		t.Error("no journal.rotated event in the rotated set")
	}
	// The live segment must open with the rotation marker.
	live, _ := os.ReadFile(path)
	first := bytes.SplitN(live, []byte("\n"), 2)[0]
	if !bytes.Contains(first, []byte("journal.rotated")) {
		t.Errorf("live segment's first line is %s, want the rotation event", first)
	}
}

// TestOpenJournalRotatedTee: a rotated file journal with a tee — the
// shape a shipping worker opens. The tee receives every line and no
// rotation marker; every segment after the first opens with exactly one
// journal.rotated line; and LoadJournals reads the set back in write
// order.
func TestOpenJournalRotatedTee(t *testing.T) {
	const events = 20
	path := filepath.Join(t.TempDir(), "j.jsonl")
	var tee bytes.Buffer
	j, err := OpenJournal(path, 300, events, &tee)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < events; i++ {
		j.Event("tick", "n", i)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	teed, _, err := ReadJournal(&tee)
	if err != nil {
		t.Fatal(err)
	}
	if len(teed) != events {
		t.Errorf("tee holds %d lines, want %d", len(teed), events)
	}
	for _, l := range teed {
		if l.Msg != "tick" {
			t.Errorf("tee received %q", l.Msg)
		}
	}

	segs := SegmentPaths(path)
	if len(segs) < 3 {
		t.Fatalf("%d segments, want the journal rotated at least twice", len(segs))
	}
	for i, s := range segs {
		b, err := os.ReadFile(s)
		if err != nil {
			t.Fatal(err)
		}
		lines, _, err := ReadJournal(bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		markers := 0
		for _, l := range lines {
			if l.Msg == "journal.rotated" {
				markers++
			}
		}
		if i == 0 && markers != 0 {
			t.Errorf("first segment %s holds %d rotation markers, want 0", s, markers)
		}
		if i > 0 && (markers != 1 || lines[0].Msg != "journal.rotated") {
			t.Errorf("segment %s holds %d markers and opens with %q, want one marker first", s, markers, lines[0].Msg)
		}
	}

	all, _, err := LoadJournals([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	next := int64(0)
	for _, l := range all {
		if l.Msg != "tick" {
			continue
		}
		if n, _ := l.Num("n"); n != next {
			t.Fatalf("LoadJournals read tick %d where %d was written", n, next)
		}
		next++
	}
	if next != events {
		t.Errorf("LoadJournals read %d ticks, want %d", next, events)
	}
}

// TestOpenJournalRotationFallbacks: stderr selectors ignore the byte
// bound, a zero bound opens a plain, unrotated file, and no file and no
// tee open the nil journal.
func TestOpenJournalRotationFallbacks(t *testing.T) {
	if j, err := OpenJournal("", 1024, 2); j != nil || err != nil {
		t.Errorf("OpenJournal(\"\") = %v, %v; want the nil journal", j, err)
	}
	for _, path := range []string{"-", "stderr"} {
		j, err := OpenJournal(path, 1024, 2)
		if err != nil {
			t.Fatalf("OpenJournal(%q) = %v", path, err)
		}
		j.Close()
	}
	p := filepath.Join(t.TempDir(), "plain.jsonl")
	j, err := OpenJournal(p, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	j.Event("only")
	j.Close()
	if got := SegmentPaths(p); len(got) != 1 || got[0] != p {
		t.Errorf("unrotated SegmentPaths = %v, want [%s]", got, p)
	}
}

// TestJournalRawSplicesAtomically: Raw lines and slog-encoded events
// interleave on whole-line boundaries even under contention — the
// coordinator splices shipped worker lines into a live fleet journal.
func TestJournalRawSplicesAtomically(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			j.Event("local", "n", i)
		}
	}()
	for i := 0; i < 100; i++ {
		j.Raw([]byte(fmt.Sprintf(`{"msg":"shipped","n":%d}`, i)))
	}
	<-done
	lines := bytes.Split(bytes.TrimRight(buf.Bytes(), "\n"), []byte("\n"))
	if len(lines) != 200 {
		t.Fatalf("got %d lines, want 200", len(lines))
	}
	for _, l := range lines {
		if !bytes.HasPrefix(l, []byte("{")) || !bytes.HasSuffix(l, []byte("}")) {
			t.Fatalf("interleaved line: %s", l)
		}
	}
	// Raw on a derived (writer-less) journal and a nil journal are no-ops.
	j.WithTrace(TraceContext{Trace: "t"}).Raw([]byte(`{"x":1}`))
	var nilJ *Journal
	nilJ.Raw([]byte(`{"x":1}`))
}
