package workload

import (
	"errors"
	"reflect"
	"testing"

	"dirsim/internal/trace"
)

// TestStreamEquivalentToGenerate: StreamBatches must emit exactly the
// reference sequence Generate materializes, for every standard workload —
// the benchmark's streamed traces and the engine's materialized ones rest
// on this.
func TestStreamEquivalentToGenerate(t *testing.T) {
	for _, cfg := range StandardConfigs(4, 20_000) {
		want := MustGenerate(cfg)
		var got []trace.Ref
		if err := StreamBatches(cfg, 0, func(b []trace.Ref) error {
			got = append(got, b...) // copy: the slice is reused
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if !reflect.DeepEqual(got, want.Refs) {
			t.Errorf("%s: streamed sequence differs from generated trace", cfg.Name)
		}
	}
}

// TestStreamBatchesEquivalentToGenerate: batched delivery must emit the
// identical reference sequence for every batch size, including sizes that
// never divide the trace length.
func TestStreamBatchesEquivalentToGenerate(t *testing.T) {
	cfg := POPSConfig(4, 20_000)
	want := MustGenerate(cfg)
	for _, batch := range []int{1, 7, 1024, 1 << 20, 0} {
		var got []trace.Ref
		maxBatch := 0
		if err := StreamBatches(cfg, batch, func(b []trace.Ref) error {
			if len(b) > maxBatch {
				maxBatch = len(b)
			}
			got = append(got, b...) // copy: the slice is reused
			return nil
		}); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if !reflect.DeepEqual(got, want.Refs) {
			t.Errorf("batch %d: streamed sequence differs from generated trace", batch)
		}
		if limit := batch; limit > 0 && maxBatch > limit {
			t.Errorf("batch %d: received a %d-reference batch", batch, maxBatch)
		}
	}
}

// TestStreamBatchesEarlyStop: a sink error must stop generation promptly
// and surface unchanged.
func TestStreamBatchesEarlyStop(t *testing.T) {
	stop := errors.New("enough")
	n := 0
	err := StreamBatches(POPSConfig(4, 100_000), 512, func(b []trace.Ref) error {
		n += len(b)
		if n >= 2048 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("StreamBatches error = %v, want the sink error", err)
	}
	if n < 2048 || n > 2048+512 {
		t.Errorf("received %d refs; want to stop at ~2048", n)
	}
}

func TestStreamRejectsInvalidConfig(t *testing.T) {
	bad := POPSConfig(0, 10_000)
	if err := StreamBatches(bad, 0, func([]trace.Ref) error { return nil }); err == nil {
		t.Error("StreamBatches accepted a zero-CPU config")
	}
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted a zero-CPU config")
	}
}
