package engine

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"dirsim/internal/event"
	"dirsim/internal/obs"
	"dirsim/internal/workload"
)

// protoMetrics returns the sim.proto.* part of a registry snapshot.
func protoMetrics(reg *obs.Registry) obs.Snapshot {
	snap := reg.Snapshot()
	out := obs.Snapshot{Counters: map[string]int64{}, Histograms: map[string]obs.HistogramSnapshot{}}
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "sim.proto.") {
			out.Counters[name] = v
		}
	}
	for name, h := range snap.Histograms {
		if strings.HasPrefix(name, "sim.proto.") {
			out.Histograms[name] = h
		}
	}
	return out
}

// TestCoherenceMetricsFromResults: a default engine publishes every
// simulation it runs into the sim.proto.<scheme>.* instruments, and the
// figures are exactly the returned results' totals — clean writes,
// broadcasts, forced invalidations and the Figure 1 histogram's count
// and sum. A result served from the memory cache or the store tier was
// not simulated here and publishes nothing.
func TestCoherenceMetricsFromResults(t *testing.T) {
	ctx := context.Background()
	schemes := []string{"Dir0B", "Dir2NB", "WTI"}
	var specs []SimSpec
	for _, cfg := range workload.StandardConfigs(4, 10_000)[:2] {
		for _, s := range schemes {
			specs = append(specs, SimSpec{Trace: cfg, Scheme: s})
		}
	}
	e := New(Options{})
	results, err := e.Results(ctx, Parallel{Workers: 2}, specs)
	if err != nil {
		t.Fatal(err)
	}

	type totals struct{ cleanWrites, broadcasts, forced, count, sum int64 }
	want := map[string]*totals{}
	for _, s := range schemes {
		want[strings.ToLower(s)] = &totals{}
	}
	var all totals
	for i, r := range results {
		w := want[strings.ToLower(specs[i].Scheme)]
		for _, tt := range []*totals{w, &all} {
			tt.cleanWrites += r.Counts.N[event.WrHitClean] + r.Counts.N[event.WrMissClean]
			tt.broadcasts += r.Broadcasts
			tt.forced += r.ForcedInvals
			for holders, n := range r.InvalClean.Buckets {
				tt.count += n
				tt.sum += int64(holders) * n
			}
		}
	}
	if all.cleanWrites == 0 || all.broadcasts == 0 || all.forced == 0 || all.sum == 0 {
		t.Fatalf("sweep exercises too little to check: %+v", all)
	}
	got := protoMetrics(e.reg)
	for scheme, w := range want {
		base := "sim.proto." + scheme
		h := got.Histograms[base+".invals_clean_write"]
		g := totals{got.Counters[base+".clean_writes"], got.Counters[base+".broadcasts"],
			got.Counters[base+".forced_invals"], h.Count, h.Sum}
		if g != *w {
			t.Errorf("%s: metrics %+v, results total %+v", base, g, *w)
		}
	}

	// An identical sweep is all memory-cache hits: nothing is simulated,
	// so nothing is published.
	if _, err := e.Results(ctx, Parallel{Workers: 2}, specs); err != nil {
		t.Fatal(err)
	}
	if again := protoMetrics(e.reg); !reflect.DeepEqual(again, got) {
		t.Errorf("cache-hit sweep moved the metrics:\n%+v\nwant\n%+v", again, got)
	}

	// A fresh engine on a store a cold engine filled serves every spec
	// from the store tier.
	dir := t.TempDir()
	if _, err := New(Options{Store: openTier(t, dir)}).Results(ctx, Parallel{Workers: 2}, specs); err != nil {
		t.Fatal(err)
	}
	warm := New(Options{Store: openTier(t, dir)})
	if _, err := warm.Results(ctx, Parallel{Workers: 2}, specs); err != nil {
		t.Fatal(err)
	}
	if n := warm.Stats().SimsRun; n != 0 {
		t.Fatalf("warm engine simulated %d specs, want 0", n)
	}
	if m := protoMetrics(warm.reg); len(m.Counters)+len(m.Histograms) != 0 {
		t.Errorf("store-tier hits published metrics: %+v", m)
	}
}
