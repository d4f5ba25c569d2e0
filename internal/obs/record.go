package obs

import (
	"bytes"
	"sync"
)

// Record is an append-only, in-memory journal of whole lines: the one
// copy of a run's or an experiment's journal that its live views read.
// It sits under a Journal as its writer; readers follow it by line
// index (Follow) or take it whole (Bytes). A record is never trimmed, so
// a reader that falls behind loses nothing and costs the writer nothing:
// it holds only its own index. Lines are immutable once written, so
// readers use them without the record's lock.
//
// Close marks the record finished for its followers. Lines written after
// Close are still kept: a late note on a finished run (a deduplicated
// request attaching to it) reaches every later reader.
//
// The zero value is ready to use and safe for concurrent use.
type Record struct {
	mu     sync.Mutex
	tail   bytes.Buffer // partial line carried between Writes
	lines  [][]byte
	size   int // bytes in lines, newlines included
	closed bool
	// next is closed, and cleared, by the next Write that completes a
	// line and by Close; Follow makes it on demand, so a record nobody
	// follows allocates no channels.
	next chan struct{}
}

// Write implements io.Writer. Lines are split on '\n' and a partial tail
// is buffered for the next call, so Write tolerates any fragmentation.
// It never fails and never waits on a reader.
func (r *Record) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tail.Write(p)
	added := false
	for {
		data := r.tail.Bytes()
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			break
		}
		r.lines = append(r.lines, bytes.Clone(data[:i]))
		r.size += i + 1
		r.tail.Next(i + 1)
		added = true
	}
	if added {
		r.wakeLocked()
	}
	return len(p), nil
}

// Close marks the record finished: followers see it after the lines
// written so far. Safe to call more than once.
func (r *Record) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	r.wakeLocked()
}

func (r *Record) wakeLocked() {
	if r.next != nil {
		close(r.next)
		r.next = nil
	}
}

// Follow returns the lines from index from on (without their newlines),
// whether the record was closed when they were taken, and a channel that
// is closed by the next line or by Close. A follower sends the lines,
// advances from by their number, and — unless the record was closed —
// waits on the channel before it asks again. The returned lines must not
// be modified.
func (r *Record) Follow(from int) (lines [][]byte, closed bool, next <-chan struct{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.lines)
	if from < n {
		lines = r.lines[from:n:n]
	}
	if r.next == nil {
		r.next = make(chan struct{})
	}
	return lines, r.closed, r.next
}

// Bytes returns every complete line written so far, each with its
// newline, in one new buffer: the journal as a file would hold it.
func (r *Record) Bytes() []byte {
	r.mu.Lock()
	lines := r.lines
	size := r.size
	r.mu.Unlock()
	out := make([]byte, 0, size)
	for _, l := range lines {
		out = append(append(out, l...), '\n')
	}
	return out
}
