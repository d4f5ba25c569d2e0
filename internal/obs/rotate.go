package obs

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
)

// rotatingWriter is a size-bounded file writer for long-running
// journals: when the live file at path would grow past maxBytes, it is
// renamed to path.1 — existing segments shift to path.2 … path.keep and
// the oldest falls off — and writing continues into a fresh file. A
// line (one Write call) is never split across segments.
type rotatingWriter struct {
	mu        sync.Mutex
	path      string
	maxBytes  int64
	keep      int
	f         *os.File
	size      int64
	rotations int64
	onRotate  func(total int64, w io.Writer)
}

// newRotatingWriter opens (truncating) the live file at path. keep < 1
// keeps one rotated segment. onRotate, when non-nil, fires after each
// completed rotation with the total rotation count and a writer into the
// fresh segment: whatever it writes lands before the line that triggered
// the rotation. It runs with the writer's lock held, so it must write
// only to w, never back through the journal that owns this writer (a
// re-entrant journal write would deadlock on the journal's line lock).
func newRotatingWriter(path string, maxBytes int64, keep int, onRotate func(total int64, w io.Writer)) (*rotatingWriter, error) {
	if keep < 1 {
		keep = 1
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &rotatingWriter{path: path, maxBytes: maxBytes, keep: keep, f: f, onRotate: onRotate}, nil
}

// SegmentPaths returns the rotated-set read order for a journal at
// path: oldest segment first, the live file last. Only segments that
// exist are returned; a bare, never-rotated journal returns just path.
func SegmentPaths(path string) []string {
	var out []string
	// Collect path.N for N = 1.. until a gap; read oldest (largest N)
	// first so the set replays in write order.
	n := 0
	for {
		if _, err := os.Stat(path + "." + strconv.Itoa(n+1)); err != nil {
			break
		}
		n++
	}
	for i := n; i >= 1; i-- {
		out = append(out, path+"."+strconv.Itoa(i))
	}
	return append(out, path)
}

// Write appends p (one journal line) to the live file, rotating first
// when it would overflow. Oversized single lines are written anyway —
// rotation bounds growth, it never drops data.
func (rw *rotatingWriter) Write(p []byte) (int, error) {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	if rw.size > 0 && rw.size+int64(len(p)) > rw.maxBytes {
		if err := rw.rotateLocked(); err != nil {
			return 0, err
		}
		if rw.onRotate != nil {
			rw.onRotate(rw.rotations, segmentHead{rw})
		}
	}
	n, err := rw.f.Write(p)
	rw.size += int64(n)
	return n, err
}

// segmentHead is the writer handed to the onRotate callback: it appends to
// the freshly opened live file under the already-held lock, keeping the
// size accounting honest so a large marker still triggers the next
// rotation on time.
type segmentHead struct{ rw *rotatingWriter }

func (h segmentHead) Write(p []byte) (int, error) {
	n, err := h.rw.f.Write(p)
	h.rw.size += int64(n)
	return n, err
}

// rotateLocked shifts segments and reopens the live file.
func (rw *rotatingWriter) rotateLocked() error {
	if err := rw.f.Close(); err != nil {
		return err
	}
	os.Remove(seg(rw.path, rw.keep)) //nolint:errcheck // the oldest segment may not exist
	for i := rw.keep - 1; i >= 1; i-- {
		if _, err := os.Stat(seg(rw.path, i)); err == nil {
			if err := os.Rename(seg(rw.path, i), seg(rw.path, i+1)); err != nil {
				return fmt.Errorf("obs: rotate: %w", err)
			}
		}
	}
	if err := os.Rename(rw.path, seg(rw.path, 1)); err != nil {
		return fmt.Errorf("obs: rotate: %w", err)
	}
	f, err := os.Create(rw.path)
	if err != nil {
		return fmt.Errorf("obs: rotate: %w", err)
	}
	rw.f, rw.size = f, 0
	rw.rotations++
	return nil
}

func seg(path string, n int) string { return path + "." + strconv.Itoa(n) }

// Close closes the live file.
func (rw *rotatingWriter) Close() error {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	return rw.f.Close()
}
