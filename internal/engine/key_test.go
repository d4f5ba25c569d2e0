package engine

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"dirsim/internal/core"
	"dirsim/internal/workload"
)

// TestSimSpecKeySensitivity pins the cache-key contract: any input that
// can change a simulation result must change the key, and inputs that
// cannot (scheme-name case) must not.
func TestSimSpecKeySensitivity(t *testing.T) {
	base := SimSpec{Trace: workload.POPSConfig(4, 50_000), Scheme: "Dir0B"}

	if base.Key() != base.Key() {
		t.Fatal("identical spec hashed to different keys")
	}
	same := SimSpec{Trace: workload.POPSConfig(4, 50_000), Scheme: "Dir0B"}
	if base.Key() != same.Key() {
		t.Error("independently built identical specs hashed differently")
	}
	lower := base
	lower.Scheme = "dir0b"
	if base.Key() != lower.Key() {
		t.Error("scheme-name case changed the key; lookup is case-insensitive")
	}

	variants := map[string]SimSpec{}
	seed := base
	seed.Trace.Seed += 1
	variants["seed"] = seed
	cpus := SimSpec{Trace: workload.POPSConfig(8, 50_000), Scheme: "Dir0B"}
	variants["cpu count"] = cpus
	refs := SimSpec{Trace: workload.POPSConfig(4, 60_000), Scheme: "Dir0B"}
	variants["trace length"] = refs
	scheme := base
	scheme.Scheme = "Dir1NB"
	variants["scheme"] = scheme
	check := base
	check.Check = true
	variants["check option"] = check
	block := base
	block.BlockBytes = 16
	variants["block size"] = block
	prof := base
	prof.Trace.Profile.SharedObjects += 1
	variants["profile knob"] = prof
	other := SimSpec{Trace: workload.THORConfig(4, 50_000), Scheme: "Dir0B"}
	variants["workload"] = other
	finite := base
	finite.Scheme = "FiniteDirNNB:64k2w"
	variants["finite cache"] = finite
	smaller := base
	smaller.Scheme = "FiniteDirNNB:16k2w"
	variants["cache size"] = smaller
	ways := base
	ways.Scheme = "FiniteDirNNB:64k4w"
	variants["associativity"] = ways
	if spelled := (SimSpec{Trace: base.Trace, Scheme: "finitedirnnb:65536b2w"}); spelled.Key() != finite.Key() {
		t.Error("two spellings of one finite cache hashed differently")
	}

	seen := map[Key]string{base.Key(): "base"}
	for name, v := range variants {
		k := v.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("spec differing only in %s collides with %s", name, prev)
		}
		seen[k] = name
	}
}

// TestFiniteSchemeKeyIsBounded: a scheme name is outside input (a
// service spec, a -schemes flag), and Key and Validate build the engine
// it names. The largest finite cache at MaxCPUs has about 8.4 M sets
// across its caches; naming it must not allocate them.
func TestFiniteSchemeKeyIsBounded(t *testing.T) {
	spec := SimSpec{Trace: workload.POPSConfig(core.MaxCPUs, 1_000), Scheme: "FiniteDirNNB:4m1w"}
	spec.Key() // warm the TraceKey memo and the regexp
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	spec.Key()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Errorf("Key and Validate of %s at %d CPUs allocated %d bytes, want <= 64 KiB",
			spec.Scheme, core.MaxCPUs, grew)
	}
}

func TestTraceKeySensitivity(t *testing.T) {
	base := workload.POPSConfig(4, 50_000)
	if TraceKey(base) != TraceKey(workload.POPSConfig(4, 50_000)) {
		t.Error("identical configs hashed differently")
	}
	seeded := base
	seeded.Seed += 1
	if TraceKey(base) == TraceKey(seeded) {
		t.Error("seed change did not change the trace key")
	}
	if TraceKey(base) == TraceKey(workload.POPSConfig(16, 50_000)) {
		t.Error("CPU-count change did not change the trace key")
	}
}

// TestKeyGolden pins key values to what the commit before the TraceKey
// memo computed: durable stores are indexed by these strings, so a warm
// store keeps hitting only while they never move. Each is derived twice,
// the second time through the memo.
func TestKeyGolden(t *testing.T) {
	golden := []struct {
		cfg      workload.Config
		trace    string
		simDir0B string
	}{
		{workload.POPSConfig(4, 50_000),
			"932feba36189eca764f10bf635cdcc0af92c957b67347afbc7df3aeb76d2bb9b",
			"66671f5e7b0bfe0e2f0960d551a2834cedd7fcb3ca78f0957773f35b0473d8e4"},
		{workload.THORConfig(4, 50_000),
			"02e6b85d2bcfc8e56387b016a5601f127963c00683de92fce89f180f08ba1c4d",
			"e3733df65aaab44586d31b66904ead27fe8ed346f9fa3641b9f5fdb185d2e96a"},
		{workload.PEROConfig(4, 50_000),
			"189ceef904cdc02e6ba2be4e6b0ff83740c1433667e8d08e19fad0363c9978c1",
			"cc23c602871a08c63d16e41ca43b2cd1d4fb28647301ea9ea72cfcf6f610a0e8"},
		{workload.POPSConfig(64, 50_000),
			"a041eae985a1b1df275c02b988dbf8c36229f1437f753331a83f96b27a405d3f",
			"d19842bda61184ec7068836ed5ddb33050b0356c3308338edaf4eefc4ffb298b"},
		{workload.THORConfig(64, 50_000),
			"87030eeb19c677393d9a0f8c6f6f68504831bc60f78dd7b3e2c125494ffec48a",
			"c824dd7200a1c22d4ce0760ab1e72b1263c5a7d57d2e4a7fd389b837973f67db"},
		{workload.PEROConfig(64, 50_000),
			"c0e4c2eabf9d9e98bac37a556b26fe929726441e77e1b2e10b5c379cdd9fab42",
			"8f121b0a90b155c0e4643a77523ca0c770e4bfd3170d744d74974c5de102d9c8"},
	}
	for _, g := range golden {
		for pass := 0; pass < 2; pass++ {
			if got := KeyHex(TraceKey(g.cfg)); got != g.trace {
				t.Errorf("%s/%d cpus pass %d: trace key %s, want %s", g.cfg.Name, g.cfg.CPUs, pass, got, g.trace)
			}
			if got := KeyHex(SimSpec{Trace: g.cfg, Scheme: "Dir0B"}.Key()); got != g.simDir0B {
				t.Errorf("%s/%d cpus pass %d: sim key %s, want %s", g.cfg.Name, g.cfg.CPUs, pass, got, g.simDir0B)
			}
		}
	}
}

// TestTraceKeyConcurrent: many goroutines deriving a few workloads' keys
// at once (run under -race) all read the value a lone caller reads.
func TestTraceKeyConcurrent(t *testing.T) {
	cfgs := workload.StandardConfigs(4, 70_000)
	want := make([]Key, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = TraceKey(cfg)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				cfg := cfgs[(g+i)%len(cfgs)]
				if i%50 == 0 {
					cfg.Seed = uint64(1000 + g*500 + i) // a fresh entry now and then
					TraceKey(cfg)
					continue
				}
				if TraceKey(cfg) != want[(g+i)%len(cfgs)] {
					t.Errorf("goroutine %d: key of %s changed", g, cfg.Name)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestTraceKeyMemoBounded: a process that keeps naming new workloads does
// not grow the memo past its bound, and keys derived after the memo has
// started over equal the ones derived before.
func TestTraceKeyMemoBounded(t *testing.T) {
	cfg := workload.POPSConfig(4, 50_000)
	first := make([]Key, 3*maxTraceKeys)
	for i := range first {
		cfg.Seed = uint64(i + 1)
		first[i] = TraceKey(cfg)
		traceKeys.Lock()
		n := len(traceKeys.m)
		traceKeys.Unlock()
		if n > maxTraceKeys {
			t.Fatalf("memo holds %d entries after %d configs, bound is %d", n, i+1, maxTraceKeys)
		}
	}
	for i := range first {
		cfg.Seed = uint64(i + 1)
		if TraceKey(cfg) != first[i] {
			t.Fatalf("seed %d: key differs after the memo turned over", i+1)
		}
	}
}

// TestCacheHitCountersAcrossBatches verifies — by counter, not by timing —
// that a repeated batch is served from the result cache: no new
// simulations or generations run, and the hit counter grows.
func TestCacheHitCountersAcrossBatches(t *testing.T) {
	e := New(Options{})
	ctx := context.Background()
	cfgs := workload.StandardConfigs(4, 30_000)

	per1, merged1 := perAndMerged(t, e, ctx, Sequential{}, over("Dir0B", cfgs, false))
	first := e.Stats()
	if first.SimsRun != int64(len(cfgs)) {
		t.Fatalf("first batch ran %d sims, want %d", first.SimsRun, len(cfgs))
	}
	if first.TracesGenerated != int64(len(cfgs)) {
		t.Fatalf("first batch generated %d traces, want %d", first.TracesGenerated, len(cfgs))
	}

	per2, merged2 := perAndMerged(t, e, ctx, Sequential{}, over("Dir0B", cfgs, false))
	second := e.Stats()
	if second.SimsRun != first.SimsRun {
		t.Errorf("repeat batch ran %d new sims, want 0", second.SimsRun-first.SimsRun)
	}
	if second.TracesGenerated != first.TracesGenerated {
		t.Errorf("repeat batch regenerated traces (%d → %d)",
			first.TracesGenerated, second.TracesGenerated)
	}
	if second.CacheHits <= first.CacheHits {
		t.Errorf("repeat batch recorded no cache hits (%d → %d)",
			first.CacheHits, second.CacheHits)
	}
	// Cached results come back as the same objects, not equal copies; a
	// merge is summed again from them.
	if !reflect.DeepEqual(merged1, merged2) {
		t.Error("merge of cached results differs")
	}
	for i := range per1 {
		if per1[i] != per2[i] {
			t.Errorf("per-trace result %d not served from cache", i)
		}
	}

	// A different seed is a different workload: it must miss.
	alt := make([]workload.Config, len(cfgs))
	copy(alt, cfgs)
	alt[0].Seed += 1
	if _, err := e.Merge(ctx, Sequential{}, [][]SimSpec{over("Dir0B", alt, false)}); err != nil {
		t.Fatal(err)
	}
	third := e.Stats()
	if third.SimsRun != second.SimsRun+1 {
		t.Errorf("seed-changed batch ran %d new sims, want exactly 1",
			third.SimsRun-second.SimsRun)
	}
}
