package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// Line is one parsed journal line: the slog envelope, every attribute,
// and the raw bytes for passthrough.
type Line struct {
	Time  time.Time
	Level string
	Msg   string
	Trace string
	Attrs map[string]any
	Raw   []byte
}

// Str returns the named attribute as a string ("" when absent or not a
// string).
func (l Line) Str(key string) string {
	s, _ := l.Attrs[key].(string)
	return s
}

// Num returns the named attribute as an int64; JSON numbers decode as
// float64.
func (l Line) Num(key string) (int64, bool) {
	f, ok := l.Attrs[key].(float64)
	return int64(f), ok
}

// Bool returns the named attribute as a bool (false when absent).
func (l Line) Bool(key string) bool {
	b, _ := l.Attrs[key].(bool)
	return b
}

// Shipped reports whether a worker shipped the line home: the
// coordinator splices "worker" and "skew_ns" onto every such line.
func (l Line) Shipped() bool {
	_, ok := l.Attrs["skew_ns"]
	return ok
}

// At is when the line was written, on the coordinator's clock: a
// shipped line's skew_ns (coordinator minus worker) converts it.
func (l Line) At() time.Time {
	skew, _ := l.Num("skew_ns")
	return l.Time.Add(time.Duration(skew))
}

// ReadJournal parses JSONL from r, skipping (and counting) lines that
// are not journal JSON objects with a "msg".
func ReadJournal(r io.Reader) (lines []Line, skipped int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		raw := sc.Bytes()
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		var m map[string]any
		if json.Unmarshal(raw, &m) != nil {
			skipped++
			continue
		}
		msg, _ := m["msg"].(string)
		if msg == "" {
			skipped++
			continue
		}
		l := Line{Msg: msg, Attrs: m, Raw: append([]byte(nil), raw...)}
		if ts, ok := m["time"].(string); ok {
			l.Time, _ = time.Parse(time.RFC3339Nano, ts)
		}
		l.Level, _ = m["level"].(string)
		l.Trace, _ = m["trace"].(string)
		lines = append(lines, l)
	}
	return lines, skipped, sc.Err()
}

// LoadJournals reads and concatenates journals ("-" is standard input),
// each file as its whole rotated set, oldest segment first.
func LoadJournals(paths []string) ([]Line, int, error) {
	var all []Line
	skipped := 0
	for _, p := range paths {
		segs := []string{p}
		if p != "-" {
			segs = SegmentPaths(p)
		}
		for _, seg := range segs {
			ls, sk, err := readSegment(seg)
			if err != nil {
				return nil, 0, err
			}
			all = append(all, ls...)
			skipped += sk
		}
	}
	return all, skipped, nil
}

func readSegment(path string) ([]Line, int, error) {
	if path == "-" {
		return ReadJournal(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	lines, skipped, err := ReadJournal(f)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	return lines, skipped, nil
}

// FleetCheck is a fleet journal's consistency: books and lease refs.
type FleetCheck struct {
	// Queued counts job.queue lines; Accepted, Degraded and Failed count
	// result.accept, job.degrade and job.remote.error.
	Queued, Accepted, Degraded, Failed int64
	// Orphans are shipped worker lines naming a lease the coordinator
	// never granted (no job.lease or job.hedge line for it).
	Orphans []Line
}

// Balanced reports whether every queued job was settled.
func (c FleetCheck) Balanced() bool { return c.Queued == c.Accepted+c.Degraded+c.Failed }

// OK is what dirsimq timeline -strict gates on.
func (c FleetCheck) OK() bool { return c.Balanced() && len(c.Orphans) == 0 }

// CheckFleet runs the fleet consistency checks over lines.
func CheckFleet(lines []Line) FleetCheck {
	var c FleetCheck
	granted := map[string]bool{}
	for _, l := range lines {
		switch l.Msg {
		case "job.queue":
			c.Queued++
		case "result.accept":
			c.Accepted++
		case "job.degrade":
			c.Degraded++
		case "job.remote.error":
			c.Failed++
		case "job.lease", "job.hedge":
			if id := l.Str("lease"); id != "" {
				granted[id] = true
			}
		}
	}
	for _, l := range lines {
		if id := l.Str("lease"); id != "" && l.Shipped() && !granted[id] {
			c.Orphans = append(c.Orphans, l)
		}
	}
	return c
}
