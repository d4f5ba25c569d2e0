package faults

import (
	"bytes"
	"fmt"
	"runtime"
	"time"
)

// GoroutineSnapshot records which goroutines were alive at a point in
// time, for asserting that an operation left none behind: take one before
// the operation under test and call Leaked after it. Identities are
// compared, not a count, so a goroutine already unwinding at the snapshot
// cannot, by exiting later, hide a new one.
type GoroutineSnapshot struct{ ids map[uint64]bool }

// Goroutines snapshots the live goroutines.
func Goroutines() GoroutineSnapshot {
	ids, _ := liveGoroutines()
	return GoroutineSnapshot{ids}
}

// liveGoroutines returns a stack dump of every live goroutine and the IDs
// parsed from its "goroutine N [state]:" headers.
func liveGoroutines() (map[uint64]bool, []byte) {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*n)
		n = runtime.Stack(buf, true)
	}
	ids := make(map[uint64]bool)
	for _, g := range bytes.Split(buf[:n], []byte("\n\n")) {
		var id uint64
		if _, err := fmt.Sscanf(string(g), "goroutine %d ", &id); err == nil {
			ids[id] = true
		}
	}
	return ids, buf[:n]
}

// Leaked polls until every live goroutine is one the snapshot held, or the
// timeout elapses. Goroutines unwind asynchronously after a cancel, so a
// single immediate look would flag leaks that are merely slow exits;
// polling separates "still shutting down" from "stuck". On timeout the
// error carries the stack dump, so the stuck goroutine is identifiable
// from the failure alone.
func (s GoroutineSnapshot) Leaked(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ids, dump := liveGoroutines()
		for id := range s.ids {
			delete(ids, id)
		}
		if len(ids) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("faults: %d goroutines leaked since the snapshot; stacks:\n%s", len(ids), dump)
		}
		runtime.Gosched()
		time.Sleep(2 * time.Millisecond)
	}
}
