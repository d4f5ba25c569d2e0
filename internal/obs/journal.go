package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sync"
	"time"
)

// Journal is a structured run journal: typed events written as JSON
// Lines through log/slog, one object per line, each carrying the slog
// time/level/msg envelope plus the event's attributes. A nil *Journal is
// a valid no-op sink, so callers thread an optional journal without nil
// checks at every emission site.
//
// Event names form a small schema:
//
//	run.start / run.finish      one pair per CLI invocation
//	experiment.start / .finish  one pair per experiment (report pipeline)
//	job.scheduled / .start / .finish
//	                            engine job lifecycle (kind, key, dur_us,
//	                            cache_hit)
//	job.retry                   one per job re-attempt (attempt,
//	                            backoff_us, error)
//	job.panic                   one per recovered job-body panic (stack)
//	cache.reject                one per cached entry failing integrity
//	                            revalidation (key)
//	job.attempt                 one per job-body attempt (attempt)
//	sim.run                     one per simulation (refs)
//	store.load                  one per durable-store result lookup
//	                            (kind, key, hit, dur_us)
//	store.store                 one per durable-store write-through
//	                            (kind, key, dur_us)
//	remote.degrade              one per remote dispatch run locally
//	error                       terminal failure summary
//
// The engine writes the job.*, cache.*, sim.*, store.* and remote.*
// lines itself, to the journal its caller's context carries
// (WithJournal). The journal supplies "trace" (WithTrace); the engine
// adds only the span attributes (span.go). job.finish, job.attempt,
// sim.run and store.* are span lines; job.retry and remote.degrade are
// instants; "name", where present, is the span's name on the rendered
// timeline.
type Journal struct {
	log    *slog.Logger
	w      *lockedWriter
	closer io.Closer
}

// lockedWriter serializes whole-line writes from the slog handler and
// Raw onto one writer, so shipped worker lines splice between locally
// emitted lines without interleaving.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// SchemaVersion identifies the shape of the observability outputs: the
// journal's event envelope and the run report (RunReport), which /runz
// serves and -manifest writes. Every journal line and report carries it
// as "schema", so downstream parsers can detect format changes instead
// of guessing. Bump it whenever either format changes incompatibly (see
// DESIGN.md for the version history).
const SchemaVersion = 4

// clockAnchor is the journal clock's wall reading, taken once per
// process; see Now.
var clockAnchor = time.Now()

// Now returns the journal clock's current time: the process's wall
// anchor plus the monotonic time elapsed since it was taken. Every
// journal line is stamped on it, so a span's start — its line's time
// minus dur_us, a monotonic duration — lies on the same clock as every
// other line even while the wall clock is slewed or stepped. Clock
// readings exchanged between processes (the fleet's skew estimate) come
// from it too.
func Now() time.Time { return onClock(time.Now()) }

// onClock maps t, a reading of this process's clocks, onto the journal
// clock.
func onClock(t time.Time) time.Time { return clockAnchor.Add(t.Sub(clockAnchor)) }

// NewJournal writes events to w. Writes are serialized (one whole line
// per Write), so one journal can be shared by every goroutine of a run.
// Every line carries the journal schema version.
func NewJournal(w io.Writer) *Journal {
	lw := &lockedWriter{w: w}
	return &Journal{
		log: slog.New(slog.NewJSONHandler(lw, nil)).With(slog.Int("schema", SchemaVersion)),
		w:   lw,
	}
}

// OpenJournal opens a JSONL journal at path; "-" and "stderr" select
// standard error, and "" no file at all. File journals are truncated,
// not appended: one file describes one run. With maxBytes > 0 a file
// journal is size-rotated: when the live file would exceed maxBytes it
// is renamed to path.1 (older segments shifting to path.2 … path.keep,
// the oldest beyond keep deleted) and a fresh file continues the stream,
// opening with a journal.rotated line; dirsimq reads the rotated set
// back as one journal. Every line also goes to each tee writer (the
// rotation marker does not) — the CLIs keep a run's journal in memory
// that way, and a worker ships it to its coordinator. With no file and
// no tee the journal is nil, the no-op sink.
func OpenJournal(path string, maxBytes int64, keep int, tee ...io.Writer) (*Journal, error) {
	var closer io.Closer
	switch path {
	case "":
	case "-", "stderr":
		tee = append(tee, os.Stderr)
	default:
		var w io.WriteCloser
		var err error
		if maxBytes > 0 {
			w, err = newRotatingWriter(path, maxBytes, keep, rotationMarker(path))
		} else {
			w, err = os.Create(path)
		}
		if err != nil {
			return nil, fmt.Errorf("obs: journal: %w", err)
		}
		tee, closer = append(tee, w), w
	}
	if len(tee) == 0 {
		return nil, nil
	}
	j := NewJournal(io.MultiWriter(tee...))
	j.closer = closer
	return j, nil
}

// rotationMarker is the onRotate callback of a rotated journal: it opens
// every fresh segment with a journal.rotated line, hand-encoded in the
// slog line shape (the callback runs under the rotating writer's lock,
// so it cannot go back through the journal — that would deadlock on the
// journal's line lock).
func rotationMarker(path string) func(total int64, w io.Writer) {
	return func(total int64, w io.Writer) {
		fmt.Fprintf(w, "{\"time\":%q,\"level\":\"INFO\",\"msg\":\"journal.rotated\",\"schema\":%d,\"segments\":%d,\"path\":%q}\n",
			Now().UTC().Format(time.RFC3339Nano), SchemaVersion, total, path)
	}
}

// Raw splices one pre-encoded JSONL line (without or with its trailing
// newline) into the journal — the coordinator's path for journal lines
// shipped home by workers, which are already slog-encoded and must not
// be re-enveloped. The line is written atomically with respect to local
// events. No-op on a nil journal or an empty line.
func (j *Journal) Raw(line []byte) {
	if j == nil || j.w == nil {
		return
	}
	line = bytes.TrimRight(line, "\r\n")
	if len(line) == 0 {
		return
	}
	buf := make([]byte, 0, len(line)+1)
	buf = append(buf, line...)
	buf = append(buf, '\n')
	j.w.Write(buf) //nolint:errcheck // journaling is best-effort, like slog's handler writes
}

// WithTrace returns a journal whose every line carries the trace
// identity as a "trace" attribute, so consumers (SSE subscribers,
// dirsimq) can attribute lines to the request that caused them without
// every emission site threading it. The derived journal shares the
// parent's writer (Raw splices into it too); Close remains the parent's
// job. An invalid context
// (or nil journal) returns the journal unchanged.
func (j *Journal) WithTrace(tc TraceContext) *Journal {
	if j == nil || !tc.Valid() {
		return j
	}
	return j.With("trace", tc.Trace)
}

// With returns a journal whose every line carries attrs (slog's
// alternating key/value convention), sharing the receiver's writer like
// WithTrace. No-op on a nil journal.
func (j *Journal) With(attrs ...any) *Journal {
	if j == nil {
		return nil
	}
	return &Journal{log: j.log.With(attrs...), w: j.w}
}

// journalKey carries a *Journal through a context.Context.
type journalKey struct{}

// WithJournal returns a context carrying j, so work done on behalf of a
// run or request journals into that run's journal: a shared engine
// serving per-request sinks writes each job's lines to the journal its
// context brings. A nil journal returns ctx unchanged.
func WithJournal(ctx context.Context, j *Journal) context.Context {
	if j == nil {
		return ctx
	}
	return context.WithValue(ctx, journalKey{}, j)
}

// JournalFrom returns the journal carried by ctx, or nil when there is
// none.
func JournalFrom(ctx context.Context) *Journal {
	j, _ := ctx.Value(journalKey{}).(*Journal)
	return j
}

// Event emits one informational event. Attributes follow slog's
// alternating key/value convention. No-op on a nil journal.
func (j *Journal) Event(name string, attrs ...any) {
	if j == nil {
		return
	}
	j.at(time.Now(), name, nil, attrs)
}

// Error emits one error-level event carrying err under the "error" key.
// No-op on a nil journal.
func (j *Journal) Error(name string, err error, attrs ...any) {
	if j == nil {
		return
	}
	j.at(time.Now(), name, err, attrs)
}

// at writes one line stamped t on the journal clock, at error level
// carrying err under "error" when err is non-nil. A span's line is
// stamped at the instant its dur_us runs to (EndSpan), so the span
// renders from its true start.
func (j *Journal) at(t time.Time, name string, err error, attrs []any) {
	level := slog.LevelInfo
	if err != nil {
		level = slog.LevelError
		attrs = append([]any{slog.String("error", err.Error())}, attrs...)
	}
	r := slog.NewRecord(onClock(t), level, name, 0)
	r.Add(attrs...)
	j.log.Handler().Handle(context.Background(), r) //nolint:errcheck // best-effort, as slog's own calls are
}

// Close releases the underlying file, if the journal owns one. No-op on
// a nil journal or a borrowed writer.
func (j *Journal) Close() error {
	if j == nil || j.closer == nil {
		return nil
	}
	return j.closer.Close()
}

// RepeatedKey returns the first top-level key that occurs more than once
// in one journal line, or "" when every key is unique. slog writes every
// attribute it is given, so a line whose journal supplies "trace" and
// whose emitter adds it again carries the key twice, which JSON decoders
// resolve silently (last wins). Tests hold every journal writer to this.
func RepeatedKey(line []byte) (string, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return "", fmt.Errorf("obs: journal line is not a JSON object: %q", line)
	}
	seen := make(map[string]bool)
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return "", err
		}
		key := tok.(string)
		if seen[key] {
			return key, nil
		}
		seen[key] = true
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			return "", err
		}
	}
	return "", nil
}
