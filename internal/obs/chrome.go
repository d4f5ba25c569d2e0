package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// chromeEvent is one entry of the Chrome trace-event JSON array; ts and
// dur are microseconds.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	ID    int            `json:"id,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// ChromeStats counts what WriteChrome rendered.
type ChromeStats struct {
	Spans    int `json:"spans"`
	Instants int `json:"instants"`
	Orphans  int `json:"orphans"` // pspan named no span: drawn as a root
}

// chromeSpan is one span or instant line on its way to the timeline.
type chromeSpan struct {
	l          *Line
	id, parent uint64
	start, end time.Time
	instant    bool
	pid, tid   int
}

// nestSlack absorbs dur_us's rounding: a child straying this far past
// its enclosing span still nests in it, clamped.
const nestSlack = 2 * time.Microsecond

// chromeOmit are the line attributes an event does not repeat in args.
var chromeOmit = map[string]bool{"time": true, "level": true, "msg": true, "schema": true,
	"span": true, "pspan": true, "dur_us": true, "name": true}

// WriteChrome renders the span and instant lines among lines (span.go)
// as Chrome trace-event JSON, skipping every other line. An event is
// named by the line's "name" (else its msg), categorized by the msg up
// to its first dot, and carries the line's other attributes plus
// "parent", the rendered ID of the span its pspan names; a pspan naming
// no span makes it a root, counted in Orphans. Shipped worker lines get
// a process of their own ("dirsimw:<name>") on the coordinator's clock
// (Line.At). Within a process, events are packed onto rows that nest
// properly, a child on its parent's row where it fits.
func WriteChrome(w io.Writer, lines []Line) (ChromeStats, error) {
	var st ChromeStats
	var spans []*chromeSpan
	var workers []string
	for i := range lines {
		l := &lines[i]
		id, err := strconv.ParseUint(l.Str("span"), 16, 64)
		if err != nil || id == 0 {
			continue
		}
		s := &chromeSpan{l: l, id: id, end: l.At(), pid: 1}
		if p, err := strconv.ParseUint(l.Str("pspan"), 16, 64); err == nil {
			s.parent = p
		}
		if d, ok := l.Num("dur_us"); ok {
			s.start = s.end.Add(-time.Duration(max(d, 0)) * time.Microsecond)
		} else {
			s.instant, s.start = true, s.end
		}
		if l.Shipped() {
			workers = append(workers, l.Str("worker"))
		}
		spans = append(spans, s)
	}
	sort.Strings(workers)
	workers = slices.Compact(workers)
	for _, s := range spans {
		if s.l.Shipped() {
			s.pid = 2 + sort.SearchStrings(workers, s.l.Str("worker"))
		}
	}
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if !a.start.Equal(b.start) {
			return a.start.Before(b.start)
		}
		if !a.end.Equal(b.end) {
			return a.end.After(b.end)
		}
		return !a.instant && b.instant
	})

	// The rendered ID of each span is its position; a journal ID seen
	// twice keeps its first span.
	ids := make(map[uint64]int, len(spans))
	for i, s := range spans {
		if _, dup := ids[s.id]; !dup && !s.instant {
			ids[s.id] = i + 1
		}
	}
	rows := make([][][]*chromeSpan, len(workers)+2) // pid → row → open spans
	out := make([]chromeEvent, 0, len(spans)+len(workers)+1)
	for i, s := range spans {
		parent, ok := ids[s.parent]
		if s.parent != 0 && !ok {
			st.Orphans++
		}
		prefer := 0
		if p := spans[max(parent-1, 0)]; ok && p.pid == s.pid && p.tid > 0 {
			prefer = p.tid
		}
		rows[s.pid] = place(rows[s.pid], s, prefer)
		ev := chromeEvent{
			Name: s.l.Str("name"),
			Cat:  s.l.Msg,
			Ph:   "X",
			TS:   micros(s.start.Sub(spans[0].start)),
			Dur:  micros(s.end.Sub(s.start)),
			PID:  s.pid,
			TID:  s.tid,
			ID:   i + 1,
			Args: map[string]any{},
		}
		if ev.Name == "" {
			ev.Name = s.l.Msg
		}
		ev.Cat, _, _ = strings.Cut(ev.Cat, ".")
		if s.instant {
			ev.Ph, ev.Scope = "i", "t"
			st.Instants++
		} else {
			st.Spans++
		}
		for k, v := range s.l.Attrs {
			if !chromeOmit[k] {
				ev.Args[k] = v
			}
		}
		if ok {
			ev.Args["parent"] = parent
		}
		out = append(out, ev)
	}
	for pid := 1; pid < len(rows); pid++ {
		name := "dirsim"
		if pid > 1 {
			name = "dirsimw:" + workers[pid-2]
		}
		out = append(out, chromeEvent{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": name}})
		for tid := 1; tid <= len(rows[pid]); tid++ {
			out = append(out, chromeEvent{Name: "thread_name", Ph: "M", PID: pid, TID: tid,
				Args: map[string]any{"name": fmt.Sprintf("row-%02d", tid)}})
		}
	}
	err := json.NewEncoder(w).Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		OtherData       ChromeStats   `json:"otherData"`
	}{out, "ms", st})
	if err != nil {
		return st, fmt.Errorf("obs: chrome export: %w", err)
	}
	return st, nil
}

// place puts s on the first row where it nests — the preferred (1-based)
// row first, else a new one. A row is the stack of its open spans.
func place(rows [][]*chromeSpan, s *chromeSpan, prefer int) [][]*chromeSpan {
	fits := func(r int) bool {
		open := rows[r]
		for len(open) > 0 && !open[len(open)-1].end.After(s.start) {
			open = open[:len(open)-1]
		}
		rows[r] = open
		if n := len(open); n > 0 {
			top := open[n-1]
			if s.start.Before(top.start.Add(-nestSlack)) || s.end.After(top.end.Add(nestSlack)) {
				return false
			}
			if s.start.Before(top.start) {
				s.start = top.start
			}
			if s.end.After(top.end) {
				s.end = top.end
			}
		}
		if !s.instant {
			rows[r] = append(open, s)
		}
		s.tid = r + 1
		return true
	}
	if prefer > 0 && fits(prefer-1) {
		return rows
	}
	for r := range rows {
		if fits(r) {
			return rows
		}
	}
	rows = append(rows, nil)
	fits(len(rows) - 1)
	return rows
}

func micros(d time.Duration) float64 { return float64(d) / 1e3 }

// WriteChromeFile renders an in-memory journal to path ("-": stdout).
func WriteChromeFile(path string, journal []byte) error {
	lines, _, err := ReadJournal(bytes.NewReader(journal))
	if err != nil {
		return fmt.Errorf("obs: chrome export: %w", err)
	}
	f := os.Stdout
	if path != "-" {
		if f, err = os.Create(path); err != nil {
			return fmt.Errorf("obs: chrome export: %w", err)
		}
		defer f.Close()
	}
	_, err = WriteChrome(f, lines)
	return err
}
