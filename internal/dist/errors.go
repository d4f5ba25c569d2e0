package dist

import (
	"errors"
	"fmt"

	"dirsim/internal/engine"
)

// WireError is the JSON codec for structured execution errors crossing
// the worker → coordinator wire. A worker-side failure must surface at
// the coordinator as the same errors.As-matchable value it would be
// locally — a job panic arrives as the *engine.JobError the worker's
// engine produced, with the worker's stack, not as a generic 500 — so
// EncodeError flattens the error chain into typed layers and Err rebuilds
// real error values from them.
type WireError struct {
	// Kind discriminates the layer: "job" (*engine.JobError) or "plain"
	// (an opaque message). Any other kind — a peer that predates this
	// one sent "shard" layers — decodes as plain.
	Kind string `json:"kind"`
	Msg  string `json:"msg,omitempty"`

	// *engine.JobError fields.
	JobID    string `json:"job_id,omitempty"`
	JobKind  string `json:"job_kind,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	Timeout  bool   `json:"timeout,omitempty"`
	Panicked bool   `json:"panicked,omitempty"`
	Stack    string `json:"stack,omitempty"`

	// Cause is the next layer down the chain.
	Cause *WireError `json:"cause,omitempty"`
}

// EncodeError flattens err into its wire form, preserving every JobError
// layer of the chain and collapsing everything else to a plain message.
// nil encodes to nil.
func EncodeError(err error) *WireError {
	if err == nil {
		return nil
	}
	var je *engine.JobError
	if !errors.As(err, &je) {
		return &WireError{Kind: "plain", Msg: err.Error()}
	}
	return &WireError{
		Kind:     "job",
		JobID:    je.ID,
		JobKind:  je.Kind,
		Attempts: je.Attempts,
		Panicked: je.Panicked,
		Timeout:  je.Timeout,
		Stack:    string(je.Stack),
		Cause:    EncodeError(je.Err),
	}
}

// Err rebuilds the real error value: a *engine.JobError with every field
// restored (so errors.As matches at the coordinator), or a plain error
// for opaque layers. nil for a nil receiver.
func (w *WireError) Err() error {
	if w == nil {
		return nil
	}
	var cause error
	if w.Cause != nil {
		cause = w.Cause.Err()
	}
	switch {
	case w.Kind == "job":
		if cause == nil {
			cause = errors.New(w.Msg)
		}
		return &engine.JobError{
			ID:       w.JobID,
			Kind:     w.JobKind,
			Attempts: w.Attempts,
			Panicked: w.Panicked,
			Timeout:  w.Timeout,
			Stack:    []byte(w.Stack),
			Err:      cause,
		}
	case cause == nil:
		return errors.New(w.Msg)
	case w.Msg == "":
		return cause
	}
	return fmt.Errorf("%s: %w", w.Msg, cause)
}
