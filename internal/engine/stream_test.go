package engine

import (
	"context"
	"reflect"
	"testing"

	"dirsim/internal/trace"
	"dirsim/internal/workload"
)

// TestParallelCompareCachesEachTraceOnce: a Parallel Compare generates
// each workload once for all of its schemes and leaves the trace cached,
// so a later Trace call costs nothing.
func TestParallelCompareCachesEachTraceOnce(t *testing.T) {
	ctx := context.Background()
	cfgs := workload.StandardConfigs(4, 20_000)

	e := New(Options{Workers: 4})
	if _, err := e.Compare(ctx, Parallel{}, []string{"Dir0B", "WTI"}, cfgs, false); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.TracesGenerated != int64(len(cfgs)) {
		t.Errorf("TracesGenerated = %d, want %d (both schemes share one generation)",
			s.TracesGenerated, len(cfgs))
	}
	if s.CachedTraces != len(cfgs) {
		t.Errorf("CachedTraces = %d, want %d", s.CachedTraces, len(cfgs))
	}
	for _, cfg := range cfgs {
		if _, err := e.Trace(ctx, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Stats().TracesGenerated; got != s.TracesGenerated {
		t.Errorf("Trace() after the batch regenerated a workload: %d generations, want %d",
			got, s.TracesGenerated)
	}
}

// TestEngineBatchSizeIndependence runs the parallel executor at
// simulation batch sizes of one reference, a prime, the default and more
// than a whole trace, against a plain sequential engine — results must
// not notice.
func TestEngineBatchSizeIndependence(t *testing.T) {
	ctx := context.Background()
	cfgs := workload.StandardConfigs(4, 25_000)

	_, want, err := New(Options{}).SchemeOverTraces(ctx, Sequential{}, "Dir1NB", cfgs, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 97, 4096, 1 << 20} {
		e := New(Options{Workers: 4, BatchRefs: batch})
		_, got, err := e.SchemeOverTraces(ctx, Parallel{Workers: 4}, "Dir1NB", cfgs, false)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("BatchRefs %d changed the merged result", batch)
		}
	}
}

// TestWorkloadStreamMatchesGenerate pins the generator-level equivalence
// between per-reference delivery and a materialized generation.
func TestWorkloadStreamMatchesGenerate(t *testing.T) {
	for _, cfg := range workload.StandardConfigs(4, 15_000) {
		want := workload.MustGenerate(cfg)
		var got []trace.Ref
		if err := workload.Stream(cfg, func(r trace.Ref) error {
			got = append(got, r)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want.Refs) {
			t.Errorf("%s: streamed refs differ from generated refs", cfg.Name)
		}
	}
}
