package engine

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// JobError is the structured failure record for one job: which job, how
// it died (panic, deadline, or a plain error), after how many attempts,
// and — for panics — the recovered stack. Every job failure the engine
// reports wraps one, so callers can triage a partial run without parsing
// error strings.
type JobError struct {
	// ID and Kind identify the job ("sim:Dir0B@pops", kind "sim").
	ID   string
	Kind string
	// Attempts is how many times the body ran before the engine gave up.
	Attempts int
	// Panicked marks a recovered panic; Stack holds the goroutine stack
	// captured at the recovery site.
	Panicked bool
	Stack    []byte
	// Timeout marks a per-job deadline expiry (the run's own context was
	// still alive).
	Timeout bool
	// Err is the underlying cause: the body's error, the recovered panic
	// value wrapped as an error, or context.DeadlineExceeded.
	Err error
}

func (e *JobError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "job %s", e.ID)
	switch {
	case e.Panicked:
		b.WriteString(" panicked")
	case e.Timeout:
		b.WriteString(" timed out")
	default:
		b.WriteString(" failed")
	}
	if e.Attempts > 1 {
		fmt.Fprintf(&b, " after %d attempts", e.Attempts)
	}
	fmt.Fprintf(&b, ": %v", e.Err)
	return b.String()
}

func (e *JobError) Unwrap() error { return e.Err }

// Retryable reports whether another attempt could plausibly succeed: a
// deadline expiry is retryable, a panic is not (the body is presumed
// broken, not unlucky), and anything else defers to the cause.
func (e *JobError) Retryable() bool {
	if e.Panicked {
		return false
	}
	if e.Timeout {
		return true
	}
	return IsRetryable(e.Err)
}

// Retryable is implemented by errors that declare themselves transient.
// The engine re-attempts a failed job body only when its error (or one it
// wraps) reports Retryable() == true.
type Retryable interface{ Retryable() bool }

// IsRetryable reports whether err, or any error it wraps, declares itself
// retryable.
func IsRetryable(err error) bool {
	for err != nil {
		if r, ok := err.(Retryable); ok {
			return r.Retryable()
		}
		err = errors.Unwrap(err)
	}
	return false
}

// Partial reports a batch that completed with some failures: Done results
// are valid and were delivered; Failed maps each failed unit (a job ID, a
// scheme name — whatever the caller batched over) to its error. The batch
// helpers (Results, Merge) return a *Partial instead of discarding the
// survivors, so one poisoned simulation degrades a sweep instead of
// voiding it.
type Partial struct {
	// Failed maps the failed unit's name to its error (usually wrapping a
	// *JobError).
	Failed map[string]error
	// Done counts the units that completed successfully.
	Done int
}

func (p *Partial) Error() string {
	names := make([]string, 0, len(p.Failed))
	for name := range p.Failed {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "engine: %d of %d units failed", len(names), len(names)+p.Done)
	for _, name := range names {
		fmt.Fprintf(&b, "\n  %s: %v", name, p.Failed[name])
	}
	return b.String()
}

// AsPartial unwraps err to a *Partial when the failure is a partial batch
// (some results still delivered), so callers can branch on degraded
// versus void without string matching.
func AsPartial(err error) (*Partial, bool) {
	var p *Partial
	if errors.As(err, &p) {
		return p, true
	}
	return nil, false
}
