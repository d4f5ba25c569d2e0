package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"dirsim/internal/engine"
)

// wireRoundTrip ships err the way a worker's push does: encode, marshal,
// unmarshal, rebuild.
func wireRoundTrip(t testing.TB, err error) error {
	t.Helper()
	data, merr := json.Marshal(EncodeError(err))
	if merr != nil {
		t.Fatal(merr)
	}
	var dec WireError
	if uerr := json.Unmarshal(data, &dec); uerr != nil {
		t.Fatal(uerr)
	}
	return dec.Err()
}

// jobLayers walks err's chain and returns every *engine.JobError on it,
// outermost first, plus the prose of whatever lies below the last one.
func jobLayers(err error) (layers []*engine.JobError, leaf string) {
	for err != nil {
		var je *engine.JobError
		if !errors.As(err, &je) {
			return layers, err.Error()
		}
		layers = append(layers, je)
		err = je.Err
	}
	return layers, ""
}

// sameJobLayers reports the first JobError field (or the leaf prose) on
// which the two chains differ, or "" when they carry the same structure.
func sameJobLayers(want, got error) string {
	wl, wleaf := jobLayers(want)
	gl, gleaf := jobLayers(got)
	if len(wl) != len(gl) {
		return fmt.Sprintf("%d job layers, want %d", len(gl), len(wl))
	}
	for i, w := range wl {
		g := gl[i]
		if g.ID != w.ID || g.Kind != w.Kind || g.Key != w.Key || g.Attempts != w.Attempts ||
			g.Panicked != w.Panicked || g.Timeout != w.Timeout || string(g.Stack) != string(w.Stack) {
			return fmt.Sprintf("job layer %d = %+v, want %+v", i, g, w)
		}
	}
	if gleaf != wleaf {
		return fmt.Sprintf("leaf prose %q, want %q", gleaf, wleaf)
	}
	return ""
}

// TestWireErrorRoundTrip is the codec half of the cross-process error
// contract: a worker-side job panic — the *engine.JobError the worker's
// engine produced, wrapped (with prose) by the batch helper — must
// survive encode → JSON → decode as an errors.As-matchable value with
// every field and the worker's stack intact.
func TestWireErrorRoundTrip(t *testing.T) {
	job := &engine.JobError{
		ID:       "sim:Dir1NB@pops",
		Kind:     "sim",
		Key:      "a1b2c3d4e5f6",
		Attempts: 1,
		Panicked: true,
		Stack:    []byte("goroutine 42 [running]:\ndirsim/internal/engine.(*Engine).attempt(...)"),
		Err:      errors.New("panic: faults: injected panic at sim:Dir1NB@pops (attempt 0)"),
	}
	got := wireRoundTrip(t, fmt.Errorf("Dir1NB over pops: %w", job))

	var je *engine.JobError
	if !errors.As(got, &je) {
		t.Fatalf("decoded error is not errors.As-matchable as *engine.JobError: %v", got)
	}
	if diff := sameJobLayers(job, got); diff != "" {
		t.Errorf("job layer lost in transit: %s", diff)
	}
	if je.Retryable() {
		t.Error("decoded panic claims to be retryable")
	}
	if msg := got.Error(); !strings.Contains(msg, "sim:Dir1NB@pops panicked") ||
		!strings.Contains(msg, "injected panic") {
		t.Errorf("decoded prose lost context: %q", msg)
	}
}

// TestWireErrorNestedJobs: a job sunk by a failed dependency carries two
// JobError layers (skipJob wraps the dependency's own JobError); both
// arrive, in order, with the timeout flag on the inner one.
func TestWireErrorNestedJobs(t *testing.T) {
	dep := &engine.JobError{ID: "stream:pops", Kind: "stream", Attempts: 3, Timeout: true,
		Err: errors.New("context deadline exceeded")}
	job := &engine.JobError{ID: "sim:WTI@pops", Kind: "sim", Key: "0123456789ab",
		Err: fmt.Errorf("dependency stream:pops failed: %w", dep)}
	got := wireRoundTrip(t, job)
	if diff := sameJobLayers(job, got); diff != "" {
		t.Fatalf("nested job layers lost: %s", diff)
	}
	layers, _ := jobLayers(got)
	if !layers[1].Timeout || !layers[0].Retryable() {
		t.Errorf("inner timeout no longer makes the chain retryable: %v", got)
	}
}

// TestWireErrorLegacyShardLayer: payloads from a worker that predates the
// removal of the "shard" layer still decode — the job layer intact, the
// shard layer as plain prose — and never panic.
func TestWireErrorLegacyShardLayer(t *testing.T) {
	const legacy = `{"kind":"job","job_id":"sim:Dir0B@thor","job_kind":"sim","attempts":1,
		"cause":{"kind":"shard","msg":"simulate thor: sim: shard 2 panicked: boom","shard":2,
			"panicked":true,"stack":"goroutine 9 [running]:","cause":{"kind":"plain","msg":"boom"}}}`
	var w WireError
	if err := json.Unmarshal([]byte(legacy), &w); err != nil {
		t.Fatal(err)
	}
	got := w.Err()
	var je *engine.JobError
	if !errors.As(got, &je) || je.ID != "sim:Dir0B@thor" || je.Panicked {
		t.Fatalf("legacy job layer decoded wrong: %#v", got)
	}
	if msg := got.Error(); !strings.Contains(msg, "shard 2 panicked: boom") {
		t.Errorf("legacy shard prose lost: %q", msg)
	}

	// A bare shard layer without prose of its own is just its cause.
	var bare WireError
	if err := json.Unmarshal([]byte(`{"kind":"shard","shard":0,"panicked":true,"stack":"s",
		"cause":{"kind":"plain","msg":"boom"}}`), &bare); err != nil {
		t.Fatal(err)
	}
	if got := bare.Err(); got == nil || got.Error() != "boom" || errors.As(got, &je) {
		t.Errorf("bare legacy shard layer decoded to %#v, want plain \"boom\"", got)
	}
}

// TestWireErrorPlain covers opaque errors: the prose survives, nothing
// pretends to be structured.
func TestWireErrorPlain(t *testing.T) {
	got := EncodeError(errors.New("dial tcp: connection refused")).Err()
	if got.Error() != "dial tcp: connection refused" {
		t.Fatalf("plain error prose changed: %q", got.Error())
	}
	var je *engine.JobError
	if errors.As(got, &je) {
		t.Fatal("plain error decoded as structured")
	}
}

// TestWireErrorNil: nil encodes to nil and decodes to nil.
func TestWireErrorNil(t *testing.T) {
	if EncodeError(nil) != nil {
		t.Error("EncodeError(nil) != nil")
	}
	var w *WireError
	if w.Err() != nil {
		t.Error("(*WireError)(nil).Err() != nil")
	}
}

// TestWireErrorJobPanicStack covers the job-layer panic fields without
// the JSON hop.
func TestWireErrorJobPanicStack(t *testing.T) {
	job := &engine.JobError{
		ID:       "sim:Dir0B@forkjoin",
		Kind:     "sim",
		Panicked: true,
		Stack:    []byte("goroutine 7 [running]:\nmain.boom(...)"),
		Err:      errors.New("panic: boom"),
	}
	got := EncodeError(job).Err()
	var je *engine.JobError
	if !errors.As(got, &je) || !je.Panicked || string(je.Stack) != string(job.Stack) {
		t.Fatalf("panic stack lost: %v", got)
	}
}

// FuzzWireError drives the decode boundary a worker's push crosses:
// whatever bytes json.Unmarshal accepts as a WireError rebuild into a
// non-nil error without panicking, and shipping that error again loses no
// JobError field at any depth. The seed corpus (testdata/fuzz) holds a
// job layer, nested causes, the legacy shard layer, and truncated and
// oversized payloads.
func FuzzWireError(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var w WireError
		if json.Unmarshal(data, &w) != nil {
			return
		}
		err := w.Err()
		if err == nil {
			t.Fatalf("non-nil WireError %s rebuilt to a nil error", data)
		}
		_ = err.Error()
		if diff := sameJobLayers(err, wireRoundTrip(t, err)); diff != "" {
			t.Fatalf("re-shipping %v: %s", err, diff)
		}
	})
}
