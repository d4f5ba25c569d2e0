package sim

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dirsim/internal/core"
	"dirsim/internal/event"
	"dirsim/internal/faults"
	"dirsim/internal/trace"
	"dirsim/internal/workload"
)

// shardBuild returns a fresh-core builder for SimulateSharded.
func shardBuild(scheme string, cpus int) func() (core.Protocol, error) {
	return func() (core.Protocol, error) { return core.NewByName(scheme, cpus) }
}

// TestShardedEquivalence is the tentpole's oracle extended to the sharded
// path: for every paper scheme over the three standard workloads, at
// every shard count including the degenerate 1, SimulateSharded produces
// a Result bit-identical to the sequential Simulate — counts, histograms,
// bus and network tallies, every field.
func TestShardedEquivalence(t *testing.T) {
	schemes := []string{"Dir1NB", "WTI", "Dir0B", "Dragon", "DirNNB"}
	for _, cfg := range workload.StandardConfigs(4, 30_000) {
		tr, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range schemes {
			p, err := core.NewByName(scheme, tr.CPUs)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Simulate(p, tr.Iterator(), batchTestOpts())
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{1, 2, 3, 8, 16} {
				opts := batchTestOpts()
				opts.Shards = shards
				got, err := SimulateSharded(shardBuild(scheme, tr.CPUs), tr.Iterator(), opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s over %s at %d shards: sharded result differs from sequential",
						scheme, cfg.Name, shards)
				}
			}
		}
	}
}

// TestShardedViaSimulateTrace covers the production dispatch: Options.
// Shards > 1 routes SimulateTrace through the sharded path and the
// result (trace name included) matches the sequential call.
func TestShardedViaSimulateTrace(t *testing.T) {
	tr, err := workload.Generate(workload.THORConfig(4, 20_000))
	if err != nil {
		t.Fatal(err)
	}
	want, err := SimulateTrace("Dir0B", tr, batchTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	opts := batchTestOpts()
	opts.Shards = 4
	got, err := SimulateTrace("Dir0B", tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("sharded SimulateTrace differs from sequential")
	}
	if got.Trace != tr.Name {
		t.Errorf("sharded result trace = %q, want %q", got.Trace, tr.Name)
	}
}

// TestShardedBatchSizeInvariance: uneven input batches exercise partial
// final buffers on every shard; the result must not move.
func TestShardedBatchSizeInvariance(t *testing.T) {
	tr, err := workload.Generate(workload.POPSConfig(4, 10_001))
	if err != nil {
		t.Fatal(err)
	}
	want, err := runReference("Dir1NB", tr)
	if err != nil {
		t.Fatal(err)
	}
	want.Trace = ""
	opts := batchTestOpts()
	opts.Shards = 3
	got, err := SimulateSharded(shardBuild("Dir1NB", tr.CPUs),
		&chunkedSource{Source: tr.Iterator(), sizes: unevenBatches}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("sharded result over uneven batches differs from per-ref reference")
	}
}

// TestShardedChecked runs the sharded path with per-shard coherence
// checkers attached; checking must not change measurements.
func TestShardedChecked(t *testing.T) {
	tr, err := workload.Generate(workload.PEROConfig(4, 12_000))
	if err != nil {
		t.Fatal(err)
	}
	want, err := runReference("DirNNB", tr)
	if err != nil {
		t.Fatal(err)
	}
	want.Trace = ""
	opts := batchTestOpts()
	opts.Shards = 4
	opts.Check = true
	opts.InvariantEvery = 777
	got, err := SimulateSharded(shardBuild("DirNNB", tr.CPUs), tr.Iterator(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("checked sharded result differs from reference")
	}
}

// faultyCore is a protocol core that fails as one shard of a sharded run.
// It embeds only core.Protocol, so core.AccessSparse falls back to its
// per-reference Access. With panics set, Access panics; otherwise
// CheckInvariants fails, which a checked run reports as an error.
type faultyCore struct {
	core.Protocol
	panics bool
}

func (f faultyCore) Access(r trace.Ref) event.Result {
	if f.panics {
		panic(fmt.Errorf("injected shard fault"))
	}
	return f.Protocol.Access(r)
}

func (f faultyCore) CheckInvariants() error {
	return errors.New("injected invariant failure")
}

func (f faultyCore) SetChecker(c *core.Checker) { core.Attach(f.Protocol, c) }

// faultyBuild returns a SimulateSharded builder whose i-th core (the core
// of shard i: cores are built in shard order) is faulty when fail(i) is
// true, and counts the cores it builds in built.
func faultyBuild(scheme string, cpus int, panics bool, fail func(int) bool, built *atomic.Int64) func() (core.Protocol, error) {
	return func() (core.Protocol, error) {
		i := int(built.Add(1)) - 1
		p, err := core.NewByName(scheme, cpus)
		if err != nil || !fail(i) {
			return p, err
		}
		return faultyCore{Protocol: p, panics: panics}, nil
	}
}

// TestShardedFaultPanic builds one shard on a core that panics in Access:
// the failure must surface as a structured *ShardError naming that shard
// and carrying the stack, every other shard must drain cleanly, and no
// goroutines may leak.
func TestShardedFaultPanic(t *testing.T) {
	// More buffers than the pipeline holds, so back-pressure engages.
	tr, err := workload.Generate(workload.POPSConfig(4, 300_000))
	if err != nil {
		t.Fatal(err)
	}
	snap := faults.Goroutines()
	opts := batchTestOpts()
	opts.Shards = 4
	var built atomic.Int64
	build := faultyBuild("Dir1NB", tr.CPUs, true, func(i int) bool { return i == 2 }, &built)
	res, err := SimulateSharded(build, tr.Iterator(), opts)
	if res != nil {
		t.Error("faulted run returned a result")
	}
	var serr *ShardError
	if !errors.As(err, &serr) {
		t.Fatalf("error %v is not a *ShardError", err)
	}
	if serr.Shard != 2 || !serr.Panicked || serr.Stack == "" {
		t.Errorf("ShardError = shard %d panicked %v stack %d bytes; want shard 2, panic, stack",
			serr.Shard, serr.Panicked, len(serr.Stack))
	}
	if leak := snap.Leaked(5 * time.Second); leak != nil {
		t.Error(leak)
	}
}

// TestShardedFaultError: a shard whose core reports an error (not a
// panic) fails without a panic flag, and the lowest failing shard wins so
// the reported error is deterministic.
func TestShardedFaultError(t *testing.T) {
	tr, err := workload.Generate(workload.POPSConfig(4, 5_000))
	if err != nil {
		t.Fatal(err)
	}
	snap := faults.Goroutines()
	opts := batchTestOpts()
	opts.Shards = 6
	opts.Check = true
	var built atomic.Int64
	build := faultyBuild("WTI", tr.CPUs, false, func(i int) bool { return i >= 3 }, &built)
	_, err = SimulateSharded(build, tr.Iterator(), opts)
	var serr *ShardError
	if !errors.As(err, &serr) {
		t.Fatalf("error %v is not a *ShardError", err)
	}
	if serr.Shard != 3 || serr.Panicked {
		t.Errorf("got shard %d (panicked=%v), want deterministic lowest failing shard 3",
			serr.Shard, serr.Panicked)
	}
	if built.Load() != 6 {
		t.Errorf("built %d cores, want one per shard", built.Load())
	}
	if leak := snap.Leaked(5 * time.Second); leak != nil {
		t.Error(leak)
	}
}

// TestShardedBuffersOnDemand bounds what a short sharded run allocates:
// the splitter makes a reference buffer only when it has none free, so
// 20 000 references over two shards fill a few 64 KiB buffers, not the
// 18 the pipeline may hold at most.
func TestShardedBuffersOnDemand(t *testing.T) {
	tr := workload.MustGenerate(workload.POPSConfig(4, 20_000))
	run := func() {
		if _, err := SimulateSharded(shardBuild("Dir0B", tr.CPUs), tr.Iterator(), Options{Shards: 2}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 5
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	if per > 600<<10 {
		t.Errorf("a 2-shard run over %d references allocates %d KB, want at most 600", len(tr.Refs), per>>10)
	}
}

// TestShardOf pins the partition function: deterministic, in range, and
// reasonably balanced over a dense block population.
func TestShardOf(t *testing.T) {
	const shards = 8
	counts := make([]int, shards)
	for b := trace.Block(0); b < 1<<14; b++ {
		s := ShardOf(b, shards)
		if s != ShardOf(b, shards) {
			t.Fatal("ShardOf is not deterministic")
		}
		if s < 0 || s >= shards {
			t.Fatalf("ShardOf(%d, %d) = %d out of range", b, shards, s)
		}
		counts[s]++
	}
	min, max := counts[0], counts[0]
	for _, c := range counts[1:] {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if min == 0 || float64(max)/float64(min) > 1.5 {
		t.Errorf("unbalanced partition: per-shard counts %v", counts)
	}
}

// TestShardedAutoShards: Shards <= 0 resolves to GOMAXPROCS and still
// matches the sequential result.
func TestShardedAutoShards(t *testing.T) {
	tr, err := workload.Generate(workload.POPSConfig(4, 8_000))
	if err != nil {
		t.Fatal(err)
	}
	want, err := runReference("Dir1NB", tr)
	if err != nil {
		t.Fatal(err)
	}
	want.Trace = ""
	opts := batchTestOpts()
	opts.Shards = 0
	got, err := SimulateSharded(shardBuild("Dir1NB", tr.CPUs), tr.Iterator(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("auto-sharded result differs from reference")
	}
}

// TestShardedRefusesFiniteCache pins the refusal of an engine whose state
// is not independent per block. A finite cache's fill evicts another block
// from its set, so shards partitioned by block replay different evictions:
// two shards over 50 000 POPS references once reported 202 capacity and
// 364 coherence misses where the sequential run has 357 and 345.
func TestShardedRefusesFiniteCache(t *testing.T) {
	const scheme = "FiniteDirNNB:512b2w"
	tr := workload.MustGenerate(workload.POPSConfig(4, 20_000))
	_, err := SimulateTrace(scheme, tr, Options{Shards: 2})
	if err == nil || !strings.Contains(err.Error(), "cannot be sharded") {
		t.Fatalf("sharded %s: err = %v, want a refusal", scheme, err)
	}
	if _, err := SimulateSharded(shardBuild(scheme, tr.CPUs), tr.Iterator(), Options{Shards: 1}); err == nil {
		t.Errorf("%s accepted at one shard", scheme)
	}
	if _, err := SimulateTrace(scheme, tr, Options{}); err != nil {
		t.Errorf("sequential %s: %v", scheme, err)
	}
}
