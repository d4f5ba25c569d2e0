package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"dirsim/internal/faults"
	"dirsim/internal/sim"
	"dirsim/internal/workload"
)

// transientErr is a self-declared retryable failure for the retry tests.
type transientErr struct{}

func (transientErr) Error() string   { return "transient blip" }
func (transientErr) Retryable() bool { return true }

// runJobs executes jobs through the engine's keep-going path and fails
// the test only if the run itself died; each job's outcome is on the job.
func runJobs(t *testing.T, e *Engine, exec Executor, jobs ...*job) {
	t.Helper()
	if err := e.execute(context.Background(), exec, jobs...); err != nil {
		t.Fatal(err)
	}
}

// TestPanicIsolation: a panicking job body must surface as a structured
// *JobError carrying the recovered stack — never unwind through the
// executor — under both executors.
func TestPanicIsolation(t *testing.T) {
	for _, exec := range []Executor{Sequential{}, Parallel{Workers: 4}} {
		e := New(Options{})
		j := &job{ID: "sim:boom", Run: func(context.Context, []any) (any, error) {
			panic("kaboom")
		}}
		runJobs(t, e, exec, j)
		err := j.err
		if err == nil {
			t.Fatalf("%s: panic did not fail the job", exec.Name())
		}
		var je *JobError
		if !errors.As(err, &je) {
			t.Fatalf("%s: error is not a *JobError: %v", exec.Name(), err)
		}
		if !je.Panicked || je.ID != "sim:boom" {
			t.Errorf("%s: JobError = %+v, want Panicked for job sim:boom", exec.Name(), je)
		}
		if !strings.Contains(string(je.Stack), "faults_test") {
			t.Errorf("%s: stack does not point at the panic site:\n%s", exec.Name(), je.Stack)
		}
		if !strings.Contains(err.Error(), "kaboom") {
			t.Errorf("%s: error loses the panic value: %v", exec.Name(), err)
		}
		if got := e.Stats().JobPanics; got != 1 {
			t.Errorf("%s: JobPanics = %d, want 1", exec.Name(), got)
		}
	}
}

// TestExecuteAllKeepsGoing: a failed job sinks only its own dependents —
// which record the dependency failure without running — while
// independent jobs complete.
func TestExecuteAllKeepsGoing(t *testing.T) {
	for _, exec := range []Executor{Sequential{}, Parallel{Workers: 4}} {
		e := New(Options{})
		bad := &job{ID: "trace:bad", Run: func(context.Context, []any) (any, error) {
			return nil, errors.New("broken")
		}}
		depRan := false
		dep := &job{ID: "sim:dep", Deps: []*job{bad}, Run: func(context.Context, []any) (any, error) {
			depRan = true
			return "never", nil
		}}
		good := &job{ID: "sim:good", Run: func(context.Context, []any) (any, error) {
			return 42, nil
		}}
		runJobs(t, e, exec, dep, good)
		if good.err != nil || good.out != 42 {
			t.Errorf("%s: independent job: %v, %v", exec.Name(), good.out, good.err)
		}
		if depRan {
			t.Errorf("%s: dependent body ran despite failed dependency", exec.Name())
		}
		var je *JobError
		if err := dep.err; !errors.As(err, &je) || !strings.Contains(err.Error(), "dependency trace:bad failed") {
			t.Errorf("%s: dependent error = %v, want JobError naming dependency trace:bad", exec.Name(), err)
		}
		if err := bad.err; err == nil || !strings.Contains(err.Error(), "broken") {
			t.Errorf("%s: failing job error = %v", exec.Name(), err)
		}
	}
}

// TestRetryRecoversTransient: a body failing with a retryable error is
// re-attempted with backoff until it succeeds, within the budget.
func TestRetryRecoversTransient(t *testing.T) {
	e := New(Options{Retries: 3})
	calls := 0
	j := &job{ID: "sim:flaky", Run: func(context.Context, []any) (any, error) {
		calls++
		if calls < 3 {
			return nil, transientErr{}
		}
		return "ok", nil
	}}
	runJobs(t, e, Sequential{}, j)
	if j.err != nil {
		t.Fatalf("retryable failure not recovered: %v", j.err)
	}
	if j.out != "ok" {
		t.Errorf("output = %v", j.out)
	}
	if calls != 3 {
		t.Errorf("body ran %d times, want 3", calls)
	}
	if got := e.Stats().JobRetries; got != 2 {
		t.Errorf("JobRetries = %d, want 2", got)
	}
}

// TestRetryBudgetExhausted: a persistently failing retryable body gives
// up after the budget, reporting the attempt count.
func TestRetryBudgetExhausted(t *testing.T) {
	e := New(Options{Retries: 2})
	j := &job{ID: "sim:doomed", Run: func(context.Context, []any) (any, error) {
		return nil, transientErr{}
	}}
	runJobs(t, e, Sequential{}, j)
	var je *JobError
	if !errors.As(j.err, &je) || je.Attempts != 3 {
		t.Fatalf("error = %v, want JobError after 3 attempts", j.err)
	}
	if !strings.Contains(j.err.Error(), "after 3 attempts") {
		t.Errorf("error does not report attempts: %v", j.err)
	}
}

// TestPlainErrorsNotRetried: only errors that declare themselves
// retryable (or per-job deadline expiries) consume the retry budget; a
// plain failure keeps failing fast even with retries configured.
func TestPlainErrorsNotRetried(t *testing.T) {
	e := New(Options{Retries: 3})
	calls := 0
	j := &job{ID: "sim:hard", Run: func(context.Context, []any) (any, error) {
		calls++
		return nil, errors.New("deterministic failure")
	}}
	runJobs(t, e, Sequential{}, j)
	if j.err == nil {
		t.Fatal("failure swallowed")
	}
	if calls != 1 {
		t.Errorf("non-retryable body ran %d times, want 1", calls)
	}
}

// TestJobTimeout: a body exceeding its per-job deadline fails with a
// structured timeout while the run itself stays alive — and the expiry
// is retryable, so a budget grants it another attempt.
func TestJobTimeout(t *testing.T) {
	e := New(Options{JobTimeout: 20 * time.Millisecond, Retries: 1})
	j := &job{ID: "sim:stuck", Run: func(ctx context.Context, _ []any) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}}
	runJobs(t, e, Sequential{}, j)
	err := j.err
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("error = %v, want *JobError", err)
	}
	if !je.Timeout || je.Panicked {
		t.Errorf("JobError = %+v, want Timeout", je)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("timeout does not unwrap to DeadlineExceeded: %v", err)
	}
	if je.Attempts != 2 {
		t.Errorf("Attempts = %d, want 2 (timeouts are retryable)", je.Attempts)
	}
	if got := e.Stats().JobTimeouts; got != 2 {
		t.Errorf("JobTimeouts = %d, want 2", got)
	}
	if !strings.Contains(err.Error(), "timed out") {
		t.Errorf("error does not say timed out: %v", err)
	}
}

// faultMatrixSchemes/Configs are the workloads shared by the injected
// fault tests below: small enough to keep the matrix cheap, large enough
// to span several simulation batches per trace.
var faultMatrixSchemes = []string{"Dir0B", "WTI"}

func faultMatrixConfigs() []workload.Config { return workload.StandardConfigs(4, 10_000) }

// cleanCompare computes the fault-free baseline the degraded runs are
// judged against.
func cleanCompare(t *testing.T, exec Executor, schemes []string, cfgs []workload.Config) map[string]*sim.Result {
	t.Helper()
	e := New(Options{})
	out, err := e.Compare(context.Background(), exec, schemes, cfgs, false)
	if err != nil {
		t.Fatalf("clean baseline failed: %v", err)
	}
	return out
}

// faultyCompare runs one Compare under the given fault schedule and
// returns the surviving results plus the set of failed schemes.
func faultyCompare(t *testing.T, exec Executor, fc faults.Config, schemes []string,
	cfgs []workload.Config) (map[string]*sim.Result, map[string]error) {
	t.Helper()
	e := New(Options{Retries: 1, Faults: faults.New(fc)})
	out, err := e.Compare(context.Background(), exec, schemes, cfgs, false)
	if err == nil {
		return out, nil
	}
	p, ok := AsPartial(err)
	if !ok {
		t.Fatalf("%s under %+v: non-partial failure: %v", exec.Name(), fc, err)
	}
	return out, p.Failed
}

// TestComparePartialOnInjectedPanic is the headline acceptance property:
// an injected panic inside one scheme's pipeline yields a *Partial that
// names the failed scheme while the survivors' merged results are
// bit-identical to a clean run — and the same seed reproduces the same
// failure set.
func TestComparePartialOnInjectedPanic(t *testing.T) {
	schemes := []string{"Dir0B", "WTI", "Dragon"}
	cfgs := faultMatrixConfigs()
	for _, exec := range []Executor{Sequential{}, Parallel{Workers: 4}} {
		clean := cleanCompare(t, exec, schemes, cfgs)
		// The schedule is a pure function of the seed, so probing seeds for
		// one that fails some schemes but not all is itself deterministic.
		var seed uint64
		var out map[string]*sim.Result
		var failed map[string]error
		for s := uint64(1); s <= 300; s++ {
			fc := faults.Config{Seed: s, Panic: 0.2}
			out, failed = faultyCompare(t, exec, fc, schemes, cfgs)
			if len(failed) > 0 && len(out) > 0 {
				seed = s
				break
			}
		}
		if seed == 0 {
			t.Fatalf("%s: no seed in 1..300 produced a partial comparison", exec.Name())
		}
		for s, r := range out {
			if !reflect.DeepEqual(r, clean[s]) {
				t.Errorf("%s seed %d: surviving scheme %s diverged from the clean run", exec.Name(), seed, s)
			}
		}
		sawPanic := false
		for s, err := range failed {
			if _, ok := out[s]; ok {
				t.Errorf("%s seed %d: scheme %s both failed and delivered", exec.Name(), seed, s)
			}
			if strings.Contains(err.Error(), "injected panic") {
				sawPanic = true
			}
		}
		if !sawPanic {
			t.Errorf("%s seed %d: no failure names the injected panic: %v", exec.Name(), seed, failed)
		}
		// Same seed, fresh engine: identical failure set.
		_, failed2 := faultyCompare(t, exec, faults.Config{Seed: seed, Panic: 0.2}, schemes, cfgs)
		if !sameKeys(failed, failed2) {
			t.Errorf("%s seed %d: failure set not reproducible: %v vs %v",
				exec.Name(), seed, keysOf(failed), keysOf(failed2))
		}
	}
}

func sameKeys(a, b map[string]error) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

func keysOf(m map[string]error) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestCachePoisoningDetected mutates a cached result behind the engine's
// back: the next hit must fail stamp revalidation, evict the entry, and
// recompute — serving the corrupted value is the one forbidden outcome.
func TestCachePoisoningDetected(t *testing.T) {
	ctx := context.Background()
	e := New(Options{Verify: true})
	spec := SimSpec{Trace: workload.POPSConfig(4, 6_000), Scheme: "Dir0B"}
	res, err := e.Results(ctx, Sequential{}, []SimSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	base := res[0].Fingerprint()
	baseTotal := res[0].Counts.Total
	// Corrupt the cached object in place (res[0] aliases the cache entry).
	res[0].Counts.Total += 17

	res2, err := e.Results(ctx, Sequential{}, []SimSpec{spec})
	if err != nil {
		t.Fatalf("recompute after poisoning failed: %v", err)
	}
	if got := e.Stats().CacheRejected; got < 1 {
		t.Fatalf("CacheRejected = %d, want >= 1", got)
	}
	if res2[0] == res[0] {
		t.Fatal("poisoned cache entry was served instead of recomputed")
	}
	if res2[0].Fingerprint() != base || res2[0].Counts.Total != baseTotal {
		t.Errorf("recomputed result differs from the original: fingerprint %x vs %x",
			res2[0].Fingerprint(), base)
	}
}

// TestPoisonedStampForcesRecompute drives the same defense through the
// injector: with every store's stamp poisoned, every hit is rejected and
// recomputed, and the caller still only ever sees correct results.
func TestPoisonedStampForcesRecompute(t *testing.T) {
	ctx := context.Background()
	spec := SimSpec{Trace: workload.POPSConfig(4, 6_000), Scheme: "Dir0B"}
	clean := New(Options{})
	want, err := clean.Results(ctx, Sequential{}, []SimSpec{spec})
	if err != nil {
		t.Fatal(err)
	}

	e := New(Options{Faults: faults.New(faults.Config{Seed: 1, Poison: 1})})
	for round := 0; round < 3; round++ {
		got, err := e.Results(ctx, Sequential{}, []SimSpec{spec})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !reflect.DeepEqual(got[0], want[0]) {
			t.Fatalf("round %d: poisoned-cache result differs from clean run", round)
		}
	}
	if got := e.Stats().CacheRejected; got < 2 {
		t.Errorf("CacheRejected = %d, want >= 2 (rounds 2 and 3 must reject)", got)
	}
}

// TestTruncationDetected: a silently shortened reference stream must be
// caught by reference accounting under both executors.
func TestTruncationDetected(t *testing.T) {
	cfg := workload.POPSConfig(4, 10_000)
	for _, exec := range []Executor{Sequential{}, Parallel{Workers: 4}} {
		found := false
		for seed := uint64(1); seed <= 20 && !found; seed++ {
			e := New(Options{Faults: faults.New(faults.Config{Seed: seed, Truncate: 1})})
			_, err := e.Results(context.Background(), exec, []SimSpec{{Trace: cfg, Scheme: "Dir0B"}})
			p, ok := AsPartial(err)
			if !ok {
				t.Fatalf("%s seed %d: truncated stream did not fail: %v", exec.Name(), seed, err)
			}
			for _, err := range p.Failed {
				if strings.Contains(err.Error(), "truncated") {
					found = true
				}
			}
			if found && e.Stats().IntegrityFaults < 1 {
				t.Errorf("%s seed %d: truncation found but IntegrityFaults = 0", exec.Name(), seed)
			}
		}
		if !found {
			t.Errorf("%s: no seed in 1..20 produced a detected truncation", exec.Name())
		}
	}
}

// TestCancelledCompareLeaksNothing cancels a full parallel comparison
// mid-flight and asserts every goroutine the engine started exits.
func TestCancelledCompareLeaksNothing(t *testing.T) {
	snap := faults.Goroutines()
	for i := 0; i < 3; i++ {
		e := New(Options{})
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := e.Compare(ctx, Parallel{Workers: 4}, []string{"Dir0B", "WTI", "Dragon"},
				workload.StandardConfigs(4, 400_000), false)
			done <- err
		}()
		time.Sleep(time.Duration(1+2*i) * time.Millisecond)
		cancel()
		if err := <-done; err == nil {
			t.Fatalf("run %d: cancellation produced no error", i)
		}
	}
	if err := snap.Leaked(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestFaultEventsJournaled: the engine journals its failure path — a
// retry at error level with its attempt, backoff and cause, a recovered
// panic with its stack, and a cache.reject for a corrupted cached result
// and for a corrupted cached trace — into the journal the context carries.
func TestFaultEventsJournaled(t *testing.T) {
	var buf bytes.Buffer
	ctx := journaled(&buf, "faulty")
	e := New(Options{Verify: true, Retries: 1})

	calls := 0
	flaky := &job{ID: "sim:flaky", Run: func(context.Context, []any) (any, error) {
		if calls++; calls == 1 {
			return nil, transientErr{}
		}
		return "ok", nil
	}}
	boom := &job{ID: "sim:boom", Run: func(context.Context, []any) (any, error) {
		panic("observed")
	}}
	if err := e.execute(ctx, Sequential{}, flaky, boom); err != nil {
		t.Fatal(err)
	}
	lines := journalLines(t, buf.Bytes())
	retries := withMsg(lines, "job.retry")
	if len(retries) != 1 || retries[0]["job"] != "sim:flaky" || retries[0]["level"] != "ERROR" ||
		retries[0]["error"] != "transient blip" || retries[0]["attempt"] != 0.0 ||
		retries[0]["backoff_us"] != 10000.0 {
		t.Errorf("job.retry lines = %v", retries)
	}
	panics := withMsg(lines, "job.panic")
	if len(panics) != 1 || panics[0]["job"] != "sim:boom" ||
		!strings.Contains(panics[0]["stack"].(string), "faults_test") {
		t.Errorf("job.panic lines = %v", panics)
	}

	spec := SimSpec{Trace: workload.POPSConfig(4, 5_000), Scheme: "Dir0B"}
	res, err := e.Results(ctx, Sequential{}, []SimSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	res[0].Counts.Total++ // corrupt the cached result
	if _, err := e.Results(ctx, Sequential{}, []SimSpec{spec}); err != nil {
		t.Fatal(err)
	}
	tr, err := e.Trace(ctx, spec.Trace)
	if err != nil {
		t.Fatal(err)
	}
	tr.Refs[0].Addr ^= 1 // corrupt the cached trace
	if _, err := e.Trace(ctx, spec.Trace); err != nil {
		t.Fatal(err)
	}
	rejected := map[any]bool{}
	for _, l := range withMsg(journalLines(t, buf.Bytes()), "cache.reject") {
		rejected[l["key"]] = true
		if l["trace"] != "faulty" {
			t.Errorf("cache.reject outside its submission's trace: %v", l)
		}
	}
	if !rejected[spec.Key().String()] || !rejected[TraceKey(spec.Trace).String()] {
		t.Errorf("cache.reject keys = %v, want the result %s and the trace %s",
			rejected, spec.Key(), TraceKey(spec.Trace))
	}
	if got := e.Stats().CacheRejected; got != int64(len(rejected)) {
		t.Errorf("CacheRejected = %d, journaled %d", got, len(rejected))
	}
}

// TestFaultMatrixSoak sweeps every fault class (and a mixed schedule)
// over both executors with fixed seeds. For each cell it asserts the two
// invariants that make fault runs trustworthy: the same seed reproduces
// the same failure set, and every surviving result is bit-identical to a
// clean run — degraded, never wrong. DIRSIM_SOAK=1 widens the seed
// sweep; -short narrows it.
func TestFaultMatrixSoak(t *testing.T) {
	matrix := []struct {
		name string
		cfg  faults.Config
	}{
		{"panic", faults.Config{Panic: 0.2}},
		{"spurious", faults.Config{Spurious: 0.3}},
		{"truncate", faults.Config{Truncate: 0.5}},
		{"poison", faults.Config{Poison: 1}},
		{"mixed", faults.Config{Panic: 0.1, Spurious: 0.2, Truncate: 0.2, Poison: 0.3}},
	}
	seeds := []uint64{1, 2}
	if os.Getenv("DIRSIM_SOAK") != "" {
		seeds = []uint64{1, 2, 3, 4, 5, 6}
	} else if testing.Short() {
		seeds = []uint64{1}
	}
	cfgs := faultMatrixConfigs()
	clean := cleanCompare(t, Sequential{}, faultMatrixSchemes, cfgs)

	for _, exec := range []Executor{Sequential{}, Parallel{Workers: 4}} {
		for _, m := range matrix {
			for _, seed := range seeds {
				t.Run(fmt.Sprintf("%s/%s/seed%d", exec.Name(), m.name, seed), func(t *testing.T) {
					fc := m.cfg
					fc.Seed = seed
					out1, failed1 := faultyCompare(t, exec, fc, faultMatrixSchemes, cfgs)
					out2, failed2 := faultyCompare(t, exec, fc, faultMatrixSchemes, cfgs)
					if !sameKeys(failed1, failed2) {
						t.Errorf("failure set not reproducible: %v vs %v",
							keysOf(failed1), keysOf(failed2))
					}
					for _, out := range []map[string]*sim.Result{out1, out2} {
						for s, r := range out {
							if !reflect.DeepEqual(r, clean[s]) {
								t.Errorf("surviving scheme %s diverged from the clean run", s)
							}
						}
					}
				})
			}
		}
	}
}
