package dist

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dirsim/internal/engine"
	"dirsim/internal/faults"
	"dirsim/internal/obs"
	"dirsim/internal/obs/httpmon"
	"dirsim/internal/sim"
	"dirsim/internal/workload"
)

// testFleet stands up one coordinator behind a real HTTP server plus any
// number of pulling workers, each on its own engine — the whole dist
// stack in one process.
type testFleet struct {
	t     *testing.T
	coord *Coordinator
	srv   *httptest.Server

	mu      sync.Mutex
	headers []http.Header // per-request headers, captured server-side
	paths   []string

	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	errs    sync.Map // worker name -> Run error
	stopped bool
}

// stop tears the fleet down — workers first, then coordinator, then the
// HTTP server. Idempotent; Cleanup calls it for tests that don't.
func (f *testFleet) stop() {
	f.mu.Lock()
	if f.stopped {
		f.mu.Unlock()
		return
	}
	f.stopped = true
	f.mu.Unlock()
	f.cancel()
	f.wg.Wait()
	f.coord.Close()
	f.srv.Close()
}

func startFleet(t *testing.T, opts Options) *testFleet {
	t.Helper()
	f := &testFleet{t: t, coord: NewCoordinator(opts)}
	mux := http.NewServeMux()
	Register(mux, f.coord)
	f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.headers = append(f.headers, r.Header.Clone())
		f.paths = append(f.paths, r.URL.Path)
		f.mu.Unlock()
		mux.ServeHTTP(w, r)
	}))
	f.ctx, f.cancel = context.WithCancel(context.Background())
	t.Cleanup(f.stop)
	return f
}

// launch starts a worker pulling from the fleet; missing fields get test
// defaults (fast poll, a private client against the fleet server).
func (f *testFleet) launch(w *Worker) {
	if w.Client == nil {
		w.Client = &Client{Base: f.srv.URL}
	}
	if w.Client.Base == "" {
		w.Client.Base = f.srv.URL
	}
	if w.Poll == 0 {
		w.Poll = 5 * time.Millisecond
	}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		f.errs.Store(w.Name, w.Run(f.ctx))
	}()
}

// waitErr blocks until the named worker's Run returns.
func (f *testFleet) waitErr(name string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		if v, ok := f.errs.Load(name); ok {
			return v.(error)
		}
		if time.Now().After(deadline) {
			f.t.Fatalf("worker %s did not exit", name)
		}
		time.Sleep(time.Millisecond)
	}
}

// tracedPaths returns the request paths that carried the given trace ID.
func (f *testFleet) tracedPaths(trace string) []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []string
	for i, h := range f.headers {
		if tc, ok := obs.ParseTraceContext(h.Get(httpmon.TraceHeader)); ok && tc.Trace == trace {
			out = append(out, f.paths[i])
		}
	}
	return out
}

func distSpecs(refs int) []engine.SimSpec {
	var specs []engine.SimSpec
	for _, cfg := range workload.StandardConfigs(4, refs) {
		for _, scheme := range []string{"Dir0B", "Dir1NB"} {
			specs = append(specs, engine.SimSpec{Trace: cfg, Scheme: scheme})
		}
	}
	return specs
}

func localRun(t *testing.T, specs []engine.SimSpec) []*sim.Result {
	t.Helper()
	rs, err := engine.New(engine.Options{}).Results(context.Background(), engine.Sequential{}, specs)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// TestWorkerRejectsCorruptedLease covers the request-path integrity
// check: a lease response whose spec was corrupted in flight into a
// different-but-parseable simulation must not be executed — the job key
// is the content hash of the spec, and a recompute mismatch means the
// worker would otherwise compute a perfectly-fingerprinted result for
// the wrong job. The worker drops the job (the lease expires and the
// coordinator requeues) and journals the corruption.
func TestWorkerRejectsCorruptedLease(t *testing.T) {
	spec := distSpecs(500)[0]
	good := engine.KeyHex(spec.Key())
	corrupted := spec
	corrupted.Trace.Refs += 7 // the in-flight bit flip

	var log bytes.Buffer
	w := &Worker{
		Name:    "w1",
		Engine:  engine.New(engine.Options{}),
		Exec:    engine.Sequential{},
		Journal: obs.NewJournal(&log),
	}
	err := w.runJob(context.Background(), &JobSpec{
		Key: good, Spec: corrupted, Lease: "l1", TTLMS: 1000,
	})
	if err != nil {
		t.Fatalf("runJob on a corrupted lease = %v, want nil (drop, let it expire)", err)
	}
	if !strings.Contains(log.String(), "worker.lease.corrupt") {
		t.Errorf("corruption not journaled:\n%s", log.String())
	}
	if strings.Contains(log.String(), "worker.job.start") {
		t.Errorf("corrupted job was executed:\n%s", log.String())
	}
}

// startSnapshots records a worker engine's stats each time the worker
// journals a job start: after the job's first trim, before it simulates.
type startSnapshots struct {
	eng *engine.Engine
	got []engine.Stats
}

func (s *startSnapshots) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte(`"msg":"worker.job.start"`)) {
		s.got = append(s.got, s.eng.Stats())
	}
	return len(p), nil
}

// TestWorkerTrimsToLeasedTrace: a worker's engine holds only what its
// current lease needs. A lease on the trace it holds keeps that trace; a
// lease on another trace drops it before the job generates the new one,
// so a job never runs beside a second trace; after the push the result
// goes and the job's trace stays. A later lease back on a dropped trace
// (what a hedge or a requeue does) regenerates it and delivers the same
// result.
func TestWorkerTrimsToLeasedTrace(t *testing.T) {
	f := startFleet(t, Options{})
	eng := engine.New(engine.Options{})
	starts := &startSnapshots{eng: eng}
	w := &Worker{Name: "w1", Client: &Client{Base: f.srv.URL}, Engine: eng, Journal: obs.NewJournal(starts)}
	specs := traceSpecs(2, "Dir0B", "Dir1NB", "WTI") // a0 a1 a2 b0 b1 b2
	for i, step := range []struct {
		spec        int
		heldAtStart int // traces the engine holds when the job starts
		generated   int64
	}{{0, 0, 1}, {1, 1, 1}, {3, 0, 2}, {2, 0, 3}} {
		spec := specs[step.spec]
		ch := submit(f.coord, spec)
		waitSubmitted(t, f.coord, int64(i+1))
		if err := w.runJob(context.Background(), mustLease(t, f.coord, "w1")); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		o := <-ch
		if o.err != nil || !reflect.DeepEqual(o.res, localResult(t, spec)) {
			t.Fatalf("job %d (%s@%s) diverged from a local run (err %v)", i, spec.Scheme, spec.Trace.Name, o.err)
		}
		if st := starts.got[i]; st.CachedTraces != step.heldAtStart || st.CachedResults != 0 {
			t.Errorf("job %d started beside %d traces and %d results, want %d and 0",
				i, st.CachedTraces, st.CachedResults, step.heldAtStart)
		}
		if st := eng.Stats(); st.CachedTraces != 1 || st.CachedResults != 0 || st.TracesGenerated != step.generated {
			t.Errorf("after job %d the engine holds %d traces and %d results, %d generated; want 1, 0, %d",
				i, st.CachedTraces, st.CachedResults, st.TracesGenerated, step.generated)
		}
	}
}

// TestFleetExecutesSweepEndToEnd drives the full stack — engine with a
// Remote, coordinator over real HTTP, two pulling workers — and checks
// the three cross-process contracts at once: results bit-identical to a
// sequential local run, the originating trace context visible in the
// coordinator journal, both worker journals, and the X-Dirsim-Trace
// header of the workers' own requests, and the coordinator's accounting
// closed.
func TestFleetExecutesSweepEndToEnd(t *testing.T) {
	specs := distSpecs(3_000)
	want := localRun(t, specs)

	var coordLog, w1Log, w2Log bytes.Buffer
	f := startFleet(t, Options{
		LeaseTTL: 2 * time.Second,
		Journal:  obs.NewJournal(&coordLog),
	})
	f.launch(&Worker{Name: "w1", Engine: engine.New(engine.Options{}),
		Journal: obs.NewJournal(&w1Log)})
	f.launch(&Worker{Name: "w2", Engine: engine.New(engine.Options{}),
		Journal: obs.NewJournal(&w2Log)})

	const trace = "e2e000feed0001"
	ctx := obs.WithTrace(context.Background(), obs.TraceContext{Trace: trace})
	lead := engine.New(engine.Options{Remote: f.coord})
	got, err := lead.Results(ctx, engine.Parallel{}, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("spec %d (%s@%s) diverged from local run", i, specs[i].Scheme, specs[i].Trace.Name)
		}
	}

	st := f.coord.Stats()
	if st.JobsCompleted != int64(len(specs)) || st.ResultsAccepted != int64(len(specs)) {
		t.Errorf("coordinator stats = %+v, want %d completions", st, len(specs))
	}
	if st.JobsSubmitted != st.JobsCompleted+st.JobsDegraded+st.JobsFailed {
		t.Errorf("accounting broken: %+v", st)
	}
	if es := lead.Stats(); es.SimsRemote != int64(len(specs)) || es.RemoteDegraded != 0 {
		t.Errorf("engine stats: SimsRemote=%d RemoteDegraded=%d", es.SimsRemote, es.RemoteDegraded)
	}

	// Satellite contract: the submission's trace context survives the
	// whole causal chain. Coordinator journal lines (job.lease,
	// result.accept) carry it...
	for _, wantLine := range []string{`"job.queue"`, `"job.lease"`, `"result.accept"`} {
		if !strings.Contains(coordLog.String(), wantLine) {
			t.Errorf("coordinator journal missing %s events", wantLine)
		}
	}
	if !strings.Contains(coordLog.String(), trace) {
		t.Error("coordinator journal lost the submission trace")
	}
	// ...both workers adopted it into their own journals...
	workerLogs := w1Log.String() + w2Log.String()
	if !strings.Contains(workerLogs, trace) {
		t.Error("worker journals lost the submission trace")
	}
	if !strings.Contains(workerLogs, `"worker.job.finish"`) {
		t.Error("worker journals missing job.finish events")
	}
	// ...and the workers' own HTTP requests (result pushes, heartbeats)
	// carried it in X-Dirsim-Trace, so the chain is reconstructable from
	// wire captures alone.
	traced := f.tracedPaths(trace)
	var pushes int
	for _, p := range traced {
		if strings.HasSuffix(p, "/result") {
			pushes++
		}
	}
	if pushes != len(specs) {
		t.Errorf("%d result pushes carried the trace header, want %d (traced: %v)",
			pushes, len(specs), traced)
	}
}

// workerPanic returns the *engine.JobError layer of err that records a
// job panic raised by the fault injector — which only worker engines carry
// in these tests, so its stack can only be a worker's — or nil.
func workerPanic(err error) *engine.JobError {
	layers, _ := jobLayers(err)
	for _, je := range layers {
		if je.Panicked && strings.Contains(string(je.Stack), "faults.(*Injector).JobFault") {
			return je
		}
	}
	return nil
}

// TestFleetJobPanicSurfaces is the end-to-end half of the error
// propagation contract: a job panic inside a worker's engine — a real
// injected one, not a hand-built error — crosses the wire and surfaces
// at the coordinator's engine as an errors.As-matchable *engine.JobError
// carrying the worker's stack, not a generic failure, and never falls
// back to local execution.
func TestFleetJobPanicSurfaces(t *testing.T) {
	f := startFleet(t, Options{LeaseTTL: 2 * time.Second})
	f.launch(&Worker{
		Name:   "w1",
		Engine: engine.New(engine.Options{Faults: faults.New(faults.Config{Seed: 1, Panic: 1})}),
	})

	specs := distSpecs(3_000)[:1]
	lead := engine.New(engine.Options{Remote: f.coord})
	_, err := lead.Results(context.Background(), engine.Sequential{}, specs)
	var p *engine.Partial
	if !errors.As(err, &p) || len(p.Failed) != 1 {
		t.Fatalf("want a one-failure Partial, got %v", err)
	}
	for _, ferr := range p.Failed {
		var je *engine.JobError
		if !errors.As(ferr, &je) {
			t.Fatalf("worker job panic lost structure across the wire: %v", ferr)
		}
		wp := workerPanic(ferr)
		if wp == nil {
			t.Fatalf("no panicked job layer with the worker's stack in: %v", ferr)
		}
		if wp.Retryable() {
			t.Errorf("worker panic decoded as retryable: %v", ferr)
		}
		if !strings.Contains(ferr.Error(), "injected panic") {
			t.Errorf("error loses the injected-panic cause: %v", ferr)
		}
	}
	st := f.coord.Stats()
	if st.JobsFailed != 1 || st.JobsDegraded != 0 || st.JobsRequeued != 0 {
		t.Errorf("execution error must be terminal: %+v", st)
	}
	if es := lead.Stats(); es.RemoteDegraded != 0 || es.SimsRun != 0 {
		t.Errorf("deterministic failure burned a local retry: %+v", es)
	}
}

// TestFleetUnknownFilterSurfaces: a worker leased a spec whose filter it
// does not know (a coordinator newer than the worker, say) pushes the
// plan-time error back as a wire error. The failure is terminal at the
// waiter: no requeue, no degrade to local execution.
func TestFleetUnknownFilterSurfaces(t *testing.T) {
	f := startFleet(t, Options{LeaseTTL: 2 * time.Second})
	f.launch(&Worker{Name: "w1", Engine: engine.New(engine.Options{})})

	spec := distSpecs(3_000)[0]
	spec.Filter = "nosuchfilter"
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	r, err := simulateOne(ctx, f.coord, spec)
	if err == nil || r != nil {
		t.Fatalf("SimulateRemote = %v, %v; want the worker's error", r, err)
	}
	if !strings.Contains(err.Error(), `unknown filter "nosuchfilter"`) {
		t.Errorf("error lost the worker's cause: %v", err)
	}
	if errors.Is(err, engine.ErrRemoteUnavailable) {
		t.Errorf("plan-time error classified as unavailability: %v", err)
	}
	if st := f.coord.Stats(); st.JobsFailed != 1 || st.JobsDegraded != 0 || st.JobsRequeued != 0 {
		t.Errorf("unknown filter must fail the job terminally: %+v", st)
	}
}

// TestFleetCrashedWorkerReassigned: a worker that dies silently mid-job
// (injected crash: no push, no heartbeats) loses its lease to the expiry
// sweep and a later worker completes the job — the full reassignment
// path over real HTTP.
func TestFleetCrashedWorkerReassigned(t *testing.T) {
	specs := distSpecs(3_000)[:2]
	want := localRun(t, specs)

	var crashLog bytes.Buffer
	f := startFleet(t, Options{
		LeaseTTL:     300 * time.Millisecond,
		DegradeAfter: time.Minute, // reassignment, not degradation
	})
	// The only worker crashes on every job it leases, then its loop dies.
	f.launch(&Worker{
		Name:    "victim",
		Engine:  engine.New(engine.Options{}),
		Inj:     faults.New(faults.Config{Seed: 1, Crash: 1}),
		Journal: obs.NewJournal(&crashLog),
	})

	done := make(chan []*sim.Result, 1)
	lead := engine.New(engine.Options{Remote: f.coord})
	go func() {
		got, err := lead.Results(context.Background(), engine.Parallel{}, specs)
		if err != nil {
			t.Error(err)
		}
		done <- got
	}()

	if err := f.waitErr("victim"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("victim Run = %v, want ErrCrashed", err)
	}
	// The fleet's survivor arrives after the crash and picks everything up.
	f.launch(&Worker{Name: "survivor", Engine: engine.New(engine.Options{})})

	got := <-done
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("spec %d diverged after reassignment", i)
		}
	}
	st := f.coord.Stats()
	if st.LeasesExpired == 0 || st.JobsRequeued == 0 {
		t.Errorf("crash did not travel the expiry path: %+v", st)
	}
	if st.JobsCompleted != int64(len(specs)) || st.JobsDegraded != 0 {
		t.Errorf("stats = %+v, want all jobs completed remotely", st)
	}
	if !strings.Contains(crashLog.String(), `"worker.crash"`) {
		t.Error("victim journal missing the worker.crash event")
	}
}

// TestFleetUnreachableDegradesToLocal: with no worker ever pulling, every
// job degrades after DegradeAfter and the lead engine computes the whole
// sweep locally — correct results, closed accounting, nothing hangs.
func TestFleetUnreachableDegradesToLocal(t *testing.T) {
	specs := distSpecs(3_000)
	want := localRun(t, specs)

	f := startFleet(t, Options{
		LeaseTTL:     200 * time.Millisecond,
		DegradeAfter: 200 * time.Millisecond,
	})
	lead := engine.New(engine.Options{Remote: f.coord})
	got, err := lead.Results(context.Background(), engine.Parallel{}, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("degraded spec %d diverged from local run", i)
		}
	}
	st := f.coord.Stats()
	if st.JobsDegraded != int64(len(specs)) || st.JobsCompleted != 0 {
		t.Errorf("stats = %+v, want all %d jobs degraded", st, len(specs))
	}
	if es := lead.Stats(); es.RemoteDegraded != int64(len(specs)) || es.SimsRun != int64(len(specs)) {
		t.Errorf("engine stats = %+v, want %d local fallbacks", es, len(specs))
	}
}

// TestPushRejectedIsSentOnce: a push the coordinator answers 422 has
// already resolved its lease and requeued its job, so the worker sends it
// exactly once, journals worker.push.rejected once, and reports the
// rejection; a push answered 400 never reached the lease and is resent.
func TestPushRejectedIsSentOnce(t *testing.T) {
	for _, tc := range []struct {
		status, sends int
		event         string
	}{
		{http.StatusUnprocessableEntity, 1, "worker.push.rejected"},
		{http.StatusBadRequest, 3, ""},
	} {
		var mu sync.Mutex
		sends := 0
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			sends++
			mu.Unlock()
			httpmon.WriteError(w, tc.status, "no")
		}))
		var journal bytes.Buffer
		w := &Worker{Name: "w1", Client: &Client{Base: srv.URL}, Journal: obs.NewJournal(&journal)}
		err := w.push(context.Background(), obs.TraceContext{}, &resultPush{Worker: "w1", Lease: "l1", Key: "aaaa"})
		srv.Close()
		if !IsStatus(err, tc.status) {
			t.Errorf("%d: push error = %v, want the %d", tc.status, err, tc.status)
		}
		if sends != tc.sends {
			t.Errorf("%d: push sent %d times, want %d", tc.status, sends, tc.sends)
		}
		if n := strings.Count(journal.String(), `"msg":"worker.push.rejected"`); tc.event != "" && n != 1 {
			t.Errorf("%d: %d worker.push.rejected lines, want 1:\n%s", tc.status, n, journal.String())
		}
	}
}
