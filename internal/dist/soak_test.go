package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dirsim/internal/engine"
	"dirsim/internal/faults"
	"dirsim/internal/obs"
	"dirsim/internal/sim"
	"dirsim/internal/workload"
)

// soakOutcome is everything one fleet run under faults leaves behind.
type soakOutcome struct {
	results []*sim.Result
	err     error
	stats   Stats
	engine  engine.Stats
	fired   map[string]int64 // union of per-worker transport fault counts
	crashes int              // workers that died to an injected crash
	journal string
}

// soakFleetConfig parameterizes one soak run.
type soakFleetConfig struct {
	seed      uint64
	workers   int
	transport faults.Config // per-worker wire faults (Seed overridden)
	crashers  int           // how many workers get the crash class
	workerEng func() *engine.Engine
	coord     Options
}

// runSoakFleet stands the whole stack up, drives the sweep through it,
// tears everything down, and reports what happened. Crashers (Crash=1,
// so they die on their first lease) are launched alone and waited for
// before the healthy workers join — otherwise whether a crasher ever
// wins a lease would race the rest of the fleet draining the queue.
// Teardown is complete before it returns, so callers can assert on
// goroutine leaks.
func runSoakFleet(t *testing.T, cfg soakFleetConfig, specs []engine.SimSpec) soakOutcome {
	t.Helper()
	var journal bytes.Buffer
	opts := cfg.coord
	opts.Journal = obs.NewJournal(&journal)
	f := startFleet(t, opts)

	transports := make([]*FaultTransport, 0, cfg.workers)
	worker := func(i int) *Worker {
		name := fmt.Sprintf("w%d", i+1)
		wire := cfg.transport
		wire.Seed = cfg.seed
		if i < cfg.crashers {
			wire.Crash = 1
		}
		ft := NewFaultTransport(name, faults.New(wire), nil)
		transports = append(transports, ft)
		eng := engine.New(engine.Options{})
		if cfg.workerEng != nil {
			eng = cfg.workerEng()
		}
		var inj *faults.Injector
		if wire.Crash > 0 {
			inj = faults.New(wire)
		}
		return &Worker{
			Name:   name,
			Client: &Client{Base: f.srv.URL, HTTP: &http.Client{Transport: ft}, Sleep: tenfold},
			Engine: eng,
			Inj:    inj,
		}
	}
	for i := 0; i < cfg.crashers; i++ {
		f.launch(worker(i))
	}

	lead := engine.New(engine.Options{Remote: f.coord})
	ctx := obs.WithTrace(context.Background(), obs.TraceContext{Trace: fmt.Sprintf("soak%016x", cfg.seed)})
	done := make(chan struct{})
	var results []*sim.Result
	var err error
	go func() {
		defer close(done)
		results, err = lead.Results(ctx, engine.Parallel{}, specs)
	}()

	// Every crasher leases exactly one queued job and dies on it; only
	// then do the healthy workers join the fleet.
	for i := 0; i < cfg.crashers; i++ {
		f.waitErr(fmt.Sprintf("w%d", i+1))
	}
	for i := cfg.crashers; i < cfg.workers; i++ {
		f.launch(worker(i))
	}
	<-done
	// Read both books only once the fleet is quiet: a worker still running
	// can land a late duplicate push between the two snapshots.
	f.stop()
	stats := f.coord.Stats()

	out := soakOutcome{
		results: results,
		err:     err,
		stats:   stats,
		engine:  lead.Stats(),
		fired:   make(map[string]int64),
		journal: journal.String(),
	}
	for _, ft := range transports {
		for class, n := range ft.Fired() {
			out.fired[class] += n
		}
	}
	f.errs.Range(func(_, v any) bool {
		if err, ok := v.(error); ok && errors.Is(err, ErrCrashed) {
			out.crashes++
		}
		return true
	})
	return out
}

// checkSoakAccounting asserts the two books balance: the coordinator's
// lifetime counters close (no job silently dropped), and every counted
// lease, hedge, requeue, rejection and expiry has its journal event.
func checkSoakAccounting(t *testing.T, o soakOutcome) {
	t.Helper()
	st := o.stats
	if st.JobsSubmitted != st.JobsCompleted+st.JobsDegraded+st.JobsFailed {
		t.Errorf("accounting broken: submitted=%d completed=%d degraded=%d failed=%d",
			st.JobsSubmitted, st.JobsCompleted, st.JobsDegraded, st.JobsFailed)
	}
	events := func(name string) int64 {
		return int64(strings.Count(o.journal, `"msg":"`+name+`",`))
	}
	for _, pair := range []struct {
		event string
		count int64
	}{
		{"job.lease", st.LeasesGranted},
		{"job.hedge", st.JobsHedged},
		{"job.requeue", st.JobsRequeued},
		{"job.lease.expire", st.LeasesExpired},
		{"job.degrade", st.JobsDegraded},
		{"result.accept", st.ResultsAccepted},
		{"result.reject", st.ResultsRejected},
		{"result.duplicate", st.ResultsDuplicate},
		{"worker.break", st.WorkersBroken},
	} {
		if got := events(pair.event); got != pair.count {
			t.Errorf("journal has %d %s events, counters say %d", got, pair.event, pair.count)
		}
	}
}

func soakSeeds() []uint64 {
	switch {
	case os.Getenv("DIRSIM_SOAK") != "":
		return []uint64{1, 2, 3, 4, 5}
	case testing.Short():
		return []uint64{1}
	}
	return []uint64{1, 2}
}

// tenfold is the faulted fleets' clock for client sleeps: ten times
// fast, as their lease TTLs of a second or less stand for the default
// ten, so the production backoff ladder and Retry-After waits keep their
// proportion to the lease.
func tenfold(d time.Duration) { time.Sleep(d / 10) }

// soakCoordOptions shrinks the lease TTL — and with it the expiry sweep
// and the breaker cooldown — and the hedge and degrade delays, so the
// full failure ladder runs in test time.
func soakCoordOptions() Options {
	return Options{
		LeaseTTL:     300 * time.Millisecond,
		HedgeAfter:   400 * time.Millisecond,
		DegradeAfter: 2 * time.Second,
	}
}

// TestDistSoakTransportFaults is the headline robustness soak: a
// coordinator and three workers, every wire fault class injected —
// drops, dropped replies, duplicated deliveries, corrupted bytes,
// injected latency, mid-stream disconnects, partitions — plus one worker
// that crashes outright, and the sweep still completes bit-identical to
// a sequential local run, with the books balanced, run after run on the
// same seed, leaking nothing.
func TestDistSoakTransportFaults(t *testing.T) {
	specs := distSpecs(3_000)
	want := localRun(t, specs)
	wire := faults.Config{
		Drop: 0.08, DropReply: 0.05, Duplicate: 0.08,
		WireCorrupt: 0.08, WireDelay: 0.25, WireDelayDur: time.Millisecond,
		Disconnect: 0.05, Partition: 0.2, PartitionWindow: 4,
	}
	for _, seed := range soakSeeds() {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			before := faults.Goroutines()
			cfg := soakFleetConfig{
				seed: seed, workers: 3, crashers: 1,
				transport: wire, coord: soakCoordOptions(),
			}
			var prev soakOutcome
			for run := 0; run < 2; run++ {
				o := runSoakFleet(t, cfg, specs)
				if o.err != nil {
					t.Fatalf("run %d: transport faults must never fail the sweep: %v", run, o.err)
				}
				for i := range want {
					if !reflect.DeepEqual(o.results[i], want[i]) {
						wj, _ := json.Marshal(want[i])
						gj, _ := json.Marshal(o.results[i])
						t.Fatalf("run %d: spec %d (%s@%s) diverged under faults\nwant fp=%x %s\ngot  fp=%x %s",
							run, i, specs[i].Scheme, specs[i].Trace.Name,
							want[i].Fingerprint(), wj, o.results[i].Fingerprint(), gj)
					}
				}
				checkSoakAccounting(t, o)
				if o.crashes != 1 {
					t.Errorf("run %d: %d workers crashed, want exactly 1 (the seeded crasher)", run, o.crashes)
				}
				if run == 1 {
					// Same seed, same outcome shape: what completed
					// remotely vs degraded locally is reproducible evidence,
					// not required to be — but the results always are (they
					// were checked bit-identical above in both runs).
					_ = prev
				}
				prev = o
			}
			// Coverage: every injectable wire class actually fired.
			for _, class := range []string{"drop", "dropreply", "dup", "corrupt", "delay", "disconnect", "partition"} {
				if prev.fired[class] == 0 {
					t.Errorf("fault class %q never fired (fired: %v)", class, prev.fired)
				}
			}
			if err := before.Leaked(2 * time.Second); err != nil {
				t.Errorf("goroutine leak after soak: %v", err)
			}
		})
	}
}

// TestDistSoakExecutionFaults: worker-side execution failures (injected
// job panics) are content-deterministic, so the same seed produces the
// same failure set across runs, the failures surface as structured
// errors, and the survivors stay bit-identical to a clean local run —
// never silently recomputed, never wrong.
func TestDistSoakExecutionFaults(t *testing.T) {
	specs := distSpecs(3_000)
	want := localRun(t, specs)
	byKey := make(map[string]*sim.Result, len(specs))
	for i, s := range specs {
		byKey[fmt.Sprintf("sim:%s@%s", s.Scheme, s.Trace.Name)] = want[i]
	}

	for _, seed := range soakSeeds() {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			before := faults.Goroutines()
			cfg := soakFleetConfig{
				seed: seed, workers: 3, coord: soakCoordOptions(),
				workerEng: func() *engine.Engine {
					return engine.New(engine.Options{
						Faults: faults.New(faults.Config{Seed: seed, Panic: 0.4}),
					})
				},
			}
			failedSet := func(err error) []string {
				var p *engine.Partial
				if !errors.As(err, &p) {
					return nil
				}
				var keys []string
				for k, ferr := range p.Failed {
					if workerPanic(ferr) == nil {
						t.Errorf("failure %s lost the worker's panicked job layer: %v", k, ferr)
					}
					keys = append(keys, k)
				}
				sort.Strings(keys)
				return keys
			}
			o1 := runSoakFleet(t, cfg, specs)
			o2 := runSoakFleet(t, cfg, specs)
			f1, f2 := failedSet(o1.err), failedSet(o2.err)
			if !reflect.DeepEqual(f1, f2) {
				t.Errorf("failure set not reproducible for seed %d: %v vs %v", seed, f1, f2)
			}
			for _, o := range []soakOutcome{o1, o2} {
				for i, r := range o.results {
					if r == nil {
						continue // a failed unit
					}
					if !reflect.DeepEqual(r, want[i]) {
						t.Errorf("surviving spec %d diverged from the clean run", i)
					}
				}
				if o.engine.RemoteDegraded != 0 {
					t.Errorf("deterministic failures must not degrade to local: %+v", o.engine)
				}
				checkSoakAccounting(t, o)
			}
			if len(f1) == 0 {
				t.Error("Panic at 0.4 over 6 specs injected nothing; tighten the config")
			}
			if err := before.Leaked(2 * time.Second); err != nil {
				t.Errorf("goroutine leak after soak: %v", err)
			}
		})
	}
}

// TestDistSoakKillAllWorkersMidSweep: the acceptance scenario — every
// worker in the fleet dies mid-sweep, and the run still completes with
// full, correct results because every undelivered job degrades to local
// execution.
func TestDistSoakKillAllWorkersMidSweep(t *testing.T) {
	specs := distSpecs(3_000)
	want := localRun(t, specs)
	before := faults.Goroutines()

	opts := soakCoordOptions()
	opts.LeaseTTL = 300 * time.Millisecond
	opts.DegradeAfter = 400 * time.Millisecond
	cfg := soakFleetConfig{seed: 1, workers: 3, crashers: 3, coord: opts}
	o := runSoakFleet(t, cfg, specs)
	if o.err != nil {
		t.Fatalf("sweep failed: %v", o.err)
	}
	for i := range want {
		if !reflect.DeepEqual(o.results[i], want[i]) {
			t.Fatalf("spec %d diverged after total fleet loss", i)
		}
	}
	if o.crashes != 3 {
		t.Errorf("crashes = %d, want all 3 workers dead", o.crashes)
	}
	if o.stats.JobsCompleted != 0 || o.stats.JobsDegraded != int64(len(specs)) {
		t.Errorf("stats = %+v, want all %d jobs degraded", o.stats, len(specs))
	}
	if o.engine.SimsRun != int64(len(specs)) {
		t.Errorf("engine ran %d local sims, want %d", o.engine.SimsRun, len(specs))
	}
	checkSoakAccounting(t, o)
	if err := before.Leaked(2 * time.Second); err != nil {
		t.Errorf("goroutine leak after fleet loss: %v", err)
	}
}

// leaseOrder is a worker journal sink that counts trace switches: leases
// whose trace differs from the previous lease's (the first one included).
// It keeps two words, not the lines, so it adds nothing to the heap a
// soak measures.
type leaseOrder struct {
	traceOf map[string]engine.Key // short job key -> trace key

	mu       sync.Mutex
	last     engine.Key
	switches int64
}

func (o *leaseOrder) Write(p []byte) (int, error) {
	var line struct{ Msg, Key string }
	if json.Unmarshal(p, &line) == nil && line.Msg == "worker.job.start" {
		tr := o.traceOf[line.Key]
		o.mu.Lock()
		if tr != o.last {
			o.last = tr
			o.switches++
		}
		o.mu.Unlock()
	}
	return len(p), nil
}

func (o *leaseOrder) count() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.switches
}

// liveHeap is the heap the last full collection found reachable.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestDistSoakBoundedWorker runs ten benchmark reps' worth of sweeps (80
// sweeps of three traces × six schemes, at small trace sizes) through one
// coordinator and one long-lived worker, and holds the worker to its
// bound. Whenever it asks for work it holds at most one trace and no
// result. It generates a trace only when a lease moves it to another one.
// Its live heap after the last sweep is within 1.5× of the heap after the
// first tenth, and its goroutines all exit. The coordinator's park seam
// says when the worker is between jobs: it has pushed, trimmed and asked
// again.
func TestDistSoakBoundedWorker(t *testing.T) {
	const sweeps, refs = 80, 2_000
	schemes := []string{"Dir1NB", "WTI", "Dir0B", "DirNNB", "Dir1B", "Dragon"}
	bySweep := make([][]engine.SimSpec, sweeps)
	order := &leaseOrder{traceOf: make(map[string]engine.Key)}
	for i := range bySweep {
		for _, cfg := range workload.StandardConfigs(4, refs) {
			cfg.Seed += uint64(i + 1)
			for _, s := range schemes {
				spec := engine.SimSpec{Trace: cfg, Scheme: s}
				bySweep[i] = append(bySweep[i], spec)
				order.traceOf[shortKey(engine.KeyHex(spec.Key()))] = engine.TraceKey(cfg)
			}
		}
	}
	before := faults.Goroutines()

	coord := NewCoordinator(Options{})
	type park struct {
		worker    engine.Stats
		completed int64
	}
	eng := engine.New(engine.Options{})
	parks := make(chan park, 256) // a sweep parks at most once per job, plus once at its end
	coord.newTimer = func(time.Duration) *time.Timer {
		select {
		case parks <- park{eng.Stats(), coord.Stats().JobsCompleted}:
		default: // nobody drains: the test has already failed
		}
		return time.NewTimer(time.Hour) // a parked worker waits for the next sweep
	}
	mux := http.NewServeMux()
	Register(mux, coord)
	srv := httptest.NewServer(mux)
	transport := &http.Transport{}
	w := &Worker{
		Name:    "w1",
		Client:  &Client{Base: srv.URL, HTTP: &http.Client{Transport: transport}},
		Engine:  eng,
		Poll:    time.Second,
		Journal: obs.NewJournal(order),
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(func() { cancel(); coord.Close(); srv.Close() }) // a failed test's teardown; all three repeat safely
	ran := make(chan error, 1)
	go func() { ran <- w.Run(ctx) }()

	var completed int64
	var firstTenth, last uint64
	for i, specs := range bySweep {
		got, err := engine.New(engine.Options{Remote: coord}).Results(context.Background(), engine.Parallel{}, specs)
		if err != nil {
			t.Fatalf("sweep %d: %v", i, err)
		}
		want, err := engine.New(engine.Options{}).Results(context.Background(), engine.Sequential{}, specs)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if !reflect.DeepEqual(got[j], want[j]) {
				t.Fatalf("sweep %d: spec %d (%s@%s) diverged from a local run", i, j, specs[j].Scheme, specs[j].Trace.Name)
			}
		}
		completed += int64(len(specs))
		// The park after the sweep's last push ends the wait.
		for waiting := true; waiting; {
			select {
			case p := <-parks:
				if p.worker.CachedTraces > 1 || p.worker.CachedResults != 0 {
					t.Fatalf("sweep %d: a worker between jobs holds %d traces and %d results, want at most 1 and 0",
						i, p.worker.CachedTraces, p.worker.CachedResults)
				}
				waiting = p.completed != completed
			case <-time.After(time.Minute):
				t.Fatalf("sweep %d: the worker never asked for work again", i)
			}
		}
		switch i + 1 {
		case sweeps / 10:
			firstTenth = liveHeap()
		case sweeps:
			last = liveHeap()
		}
	}

	cancel()
	if err := <-ran; err != nil {
		t.Errorf("worker Run = %v", err)
	}
	coord.Close()
	srv.Close()
	transport.CloseIdleConnections()

	st := coord.Stats()
	if st.JobsCompleted != completed || st.JobsRequeued != 0 || st.JobsHedged != 0 || st.JobsDegraded != 0 {
		t.Errorf("a fault-free soak requeued, hedged or degraded: %+v", st)
	}
	if gen, switches := eng.Stats().TracesGenerated, order.count(); gen != switches {
		t.Errorf("worker generated %d traces over %d trace switches: a trace it kept was regenerated", gen, switches)
	}
	t.Logf("live heap %d B after sweep %d, %d B after sweep %d", firstTenth, sweeps/10, last, sweeps)
	if float64(last) > 1.5*float64(firstTenth) {
		t.Errorf("live heap grew from %d B after sweep %d to %d B after sweep %d (> 1.5×)",
			firstTenth, sweeps/10, last, sweeps)
	}
	if err := before.Leaked(2 * time.Second); err != nil {
		t.Errorf("goroutine leak after soak: %v", err)
	}
}
