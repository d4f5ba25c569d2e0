package obs

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

// follow reads rec from line from until it is closed, returning every
// line as a string.
func follow(rec *Record, from int) []string {
	var out []string
	for {
		lines, closed, next := rec.Follow(from)
		for _, l := range lines {
			out = append(out, string(l))
		}
		from += len(lines)
		if closed {
			return out
		}
		<-next
	}
}

func TestRecordKeepsJournalLines(t *testing.T) {
	var rec Record
	j := NewJournal(&rec)
	j.Event("experiment.start", "id", "e1")
	j.Event("experiment.finish", "id", "e1")
	rec.Close()

	lines := follow(&rec, 0)
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %q", len(lines), lines)
	}
	var ev struct {
		Msg    string `json:"msg"`
		Schema int    `json:"schema"`
		ID     string `json:"id"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("line is not JSON: %v", err)
	}
	if ev.Msg != "experiment.start" || ev.Schema != SchemaVersion || ev.ID != "e1" {
		t.Errorf("event = %+v", ev)
	}
	if got, want := string(rec.Bytes()), lines[0]+"\n"+lines[1]+"\n"; got != want {
		t.Errorf("Bytes = %q, want %q", got, want)
	}
}

func TestRecordHandlesFragmentedWrites(t *testing.T) {
	var rec Record
	rec.Write([]byte("hel"))
	rec.Write([]byte("lo\nwor"))
	if lines, _, _ := rec.Follow(0); len(lines) != 1 || string(lines[0]) != "hello" {
		t.Errorf("after a partial line: %q", lines)
	}
	rec.Write([]byte("ld\n"))
	rec.Close()
	if lines := follow(&rec, 0); len(lines) != 2 || lines[0] != "hello" || lines[1] != "world" {
		t.Errorf("lines = %q", lines)
	}
	if got := string(rec.Bytes()); got != "hello\nworld\n" {
		t.Errorf("Bytes = %q", got)
	}
}

// TestRecordCloseWakesFollowers: a follower waiting for the next line is
// woken by Close and sees the record closed after every line; lines
// written after Close are kept for later readers.
func TestRecordCloseWakesFollowers(t *testing.T) {
	var rec Record
	fmt.Fprint(&rec, "final\n")
	lines, closed, next := rec.Follow(0)
	if len(lines) != 1 || closed {
		t.Fatalf("open record: %q, closed=%v", lines, closed)
	}
	rec.Close()
	<-next
	if lines, closed, _ := rec.Follow(1); len(lines) != 0 || !closed {
		t.Fatalf("after Close: %q, closed=%v", lines, closed)
	}
	rec.Close() // twice is fine

	fmt.Fprint(&rec, "after\n")
	if got := follow(&rec, 0); len(got) != 2 || got[1] != "after" {
		t.Errorf("late reader sees %q, want the line written after Close too", got)
	}
}

// TestRecordStalledFollowerNeverBlocksWriter is the contract behind live
// event streaming: a follower that has taken its cursor and then stops
// reading holds nothing but that cursor. Concurrent writers finish
// without it; when it resumes it receives every line, each writer's in
// its order, and so does a follower that kept up throughout.
func TestRecordStalledFollowerNeverBlocksWriter(t *testing.T) {
	var rec Record
	const writers, perW = 4, 200

	stalled, _, _ := rec.Follow(0) // takes its cursor, then stops reading
	var fast []string
	fastDone := make(chan struct{})
	go func() {
		defer close(fastDone)
		fast = follow(&rec, 0)
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				fmt.Fprintf(&rec, "%d %d\n", w, i)
			}
		}(w)
	}
	wg.Wait() // returns although neither follower has read a line
	rec.Close()

	check := func(who string, lines []string) {
		t.Helper()
		if len(lines) != writers*perW {
			t.Fatalf("%s follower got %d lines, want %d", who, len(lines), writers*perW)
		}
		nextOf := make([]int, writers)
		for _, l := range lines {
			var w, i int
			if _, err := fmt.Sscanf(l, "%d %d", &w, &i); err != nil {
				t.Fatalf("%s follower: line %q: %v", who, l, err)
			}
			if i != nextOf[w] {
				t.Fatalf("%s follower: writer %d's line %d arrived where %d was due", who, w, i, nextOf[w])
			}
			nextOf[w]++
		}
	}
	check("stalled", follow(&rec, len(stalled)))
	<-fastDone
	check("fast", fast)
}

// TestRecordLateFollowerReplaysEveryLine: a follower that arrives after
// the run, however long it was, is replayed every line from the first.
func TestRecordLateFollowerReplaysEveryLine(t *testing.T) {
	var rec Record
	const n = 1000
	for i := 0; i < n; i++ {
		fmt.Fprintf(&rec, "line %d\n", i)
	}
	rec.Close()
	lines := follow(&rec, 0)
	if len(lines) != n {
		t.Fatalf("replayed %d lines, want %d", len(lines), n)
	}
	for i, l := range lines {
		if want := fmt.Sprintf("line %d", i); l != want {
			t.Fatalf("replay[%d] = %q, want %q", i, l, want)
		}
	}
}

// TestRecordSlowFollowerLosesNothing: a follower that takes one line per
// turn while bursts of lines keep arriving falls behind, and catches up
// with nothing missing.
func TestRecordSlowFollowerLosesNothing(t *testing.T) {
	var rec Record
	got, from := 0, 0
	for burst := 0; burst < 10; burst++ {
		for i := 0; i < 10; i++ {
			fmt.Fprintf(&rec, "%d\n", burst*10+i)
		}
		lines, _, _ := rec.Follow(from)
		if want := fmt.Sprint(got); string(lines[0]) != want {
			t.Fatalf("slow follower's next line = %q, want %q", lines[0], want)
		}
		got, from = got+1, from+1
	}
	rec.Close()
	rest := follow(&rec, from)
	if got+len(rest) != 100 || rest[len(rest)-1] != "99" {
		t.Errorf("slow follower caught up with %d+%d lines ending %q, want 100 ending \"99\"",
			got, len(rest), rest[len(rest)-1])
	}
}

// TestRecordConcurrentWriteFollow: followers that join at any point
// while writers are busy each read every line, in the order the record
// holds them. Run under -race.
func TestRecordConcurrentWriteFollow(t *testing.T) {
	var rec Record
	const writers, perW, followers = 4, 50, 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				fmt.Fprintf(&rec, "w%d line %d\n", w, i)
			}
		}(w)
	}
	got := make([][]string, followers)
	var fwg sync.WaitGroup
	for f := 0; f < followers; f++ {
		fwg.Add(1)
		go func(f int) {
			defer fwg.Done()
			got[f] = follow(&rec, 0)
		}(f)
	}
	wg.Wait()
	rec.Close()
	fwg.Wait()
	want := follow(&rec, 0)
	if len(want) != writers*perW {
		t.Fatalf("record holds %d lines, want %d", len(want), writers*perW)
	}
	for f, lines := range got {
		if fmt.Sprint(lines) != fmt.Sprint(want) {
			t.Errorf("follower %d read %d lines, not the record's %d in order", f, len(lines), len(want))
		}
	}
}
