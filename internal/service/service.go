// Package service is the multi-tenant experiment API: an HTTP/JSON layer
// over the simulation engine and its durable content-addressed store.
// Clients submit scheme×workload×CPU sweeps; identical sweeps — from any
// tenant, any process sharing the store directory — collapse to one
// computation, so most traffic on a warm service is cache hits. Requests
// pass admission control (bounded queue, pluggable FCFS/priority
// discipline, per-tenant in-flight quotas) and every experiment exposes
// its journal as a live SSE stream.
package service

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"slices"
	"sync"
	"time"

	"dirsim/internal/engine"
	"dirsim/internal/faults"
	"dirsim/internal/obs"
	"dirsim/internal/sim"
	"dirsim/internal/store"
)

// Config assembles a Service.
type Config struct {
	// Store is the durable result tier; nil runs memory-only.
	Store *store.Store
	// Metrics receives service, engine and admission counters; nil
	// allocates a private registry.
	Metrics *obs.Registry
	// MaxInflight is the number of experiments executed concurrently
	// (the worker pool size); 0 means 2.
	MaxInflight int
	// MaxQueue bounds experiments waiting for a worker; 0 means 64.
	MaxQueue int
	// Quota is the per-tenant cap on queued+running experiments; 0
	// means unlimited.
	Quota int
	// Discipline selects the admission queue policy: "fcfs" (default)
	// or "priority".
	Discipline string
	// SimWorkers is the engine parallelism within one experiment; 0
	// means GOMAXPROCS.
	SimWorkers int
	// Verify enables cache-integrity revalidation on the engine.
	Verify bool
	// Faults, when non-nil, injects deterministic failures (tests).
	Faults *faults.Injector
	// Remote, when non-nil, is the distributed execution hook: the
	// engine offers every simulation to it before running locally
	// (typically a *dist.Coordinator sharding the sweep across pull
	// workers), and degrades to local execution when it is unavailable.
	Remote engine.Remote
	// Log receives operational messages; nil discards them.
	Log *slog.Logger
}

// State is an experiment's lifecycle phase.
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
	StateAborted State = "aborted" // drained before it could run
)

// Experiment is one submitted sweep and, eventually, its results.
// Fields are guarded by the owning Service's mu except where noted.
type Experiment struct {
	ID       string
	Tenant   string // tenant that first submitted it
	Priority int
	Spec     Spec

	State     State
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
	Err       string

	specs   []engine.SimSpec
	meta    []SpecMeta
	results []*sim.Result // parallel to specs; nil entries failed
	// prints holds each result's Fingerprint in the API's fixed-width hex,
	// computed once when the experiment finishes; "" where results is nil.
	prints []string

	// record is the experiment's journal, the only copy: journal writes
	// into it, SSE subscribers follow it from its first line, and GET
	// /api/v1/experiments/{id}/trace renders it once the experiment
	// finishes. Both are safe for concurrent use.
	journal *obs.Journal
	record  obs.Record

	// tc is the trace identity of the request that created the
	// experiment: every journal line carries it, and the experiment's
	// request span nests under its span.
	tc obs.TraceContext
}

// Service executes experiments against a shared engine and serves their
// lifecycle over HTTP. Create with New, start with Start, stop with
// Drain.
type Service struct {
	cfg   Config
	reg   *obs.Registry
	eng   *engine.Engine
	adm   *Admission
	st    *store.Store
	log   *slog.Logger
	start time.Time

	mu       sync.Mutex
	exps     map[string]*Experiment
	order    []string // submission order, for listing
	draining bool

	workers sync.WaitGroup
	runCtx  context.Context
	runStop context.CancelFunc

	submitted *obs.Counter
	deduped   *obs.Counter
	completed *obs.Counter
	failed    *obs.Counter
	running   *obs.Gauge
	admWait   *obs.Histogram

	// beforeAdmit, when set (tests), runs between Submit's registration
	// of a new experiment and its admission.
	beforeAdmit func()
}

// New builds a Service. Call Start to begin executing work.
func New(cfg Config) (*Service, error) {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 2
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64
	}
	if cfg.SimWorkers <= 0 {
		cfg.SimWorkers = runtime.GOMAXPROCS(0)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	d, err := NewDiscipline(cfg.Discipline)
	if err != nil {
		return nil, err
	}
	log := cfg.Log
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	var tier engine.Tier
	if cfg.Store != nil {
		tier = cfg.Store
	}
	eng := engine.New(engine.Options{
		Metrics: reg,
		Verify:  cfg.Verify,
		Faults:  cfg.Faults,
		Store:   tier,
		Remote:  cfg.Remote,
	})
	ctx, stop := context.WithCancel(context.Background())
	s := &Service{
		cfg:     cfg,
		reg:     reg,
		eng:     eng,
		adm:     NewAdmission(d, cfg.MaxQueue, cfg.Quota, reg),
		st:      cfg.Store,
		log:     log,
		start:   time.Now(),
		exps:    make(map[string]*Experiment),
		runCtx:  ctx,
		runStop: stop,

		submitted: reg.Counter("service.experiments.submitted"),
		deduped:   reg.Counter("service.experiments.deduped"),
		completed: reg.Counter("service.experiments.completed"),
		failed:    reg.Counter("service.experiments.failed"),
		running:   reg.Gauge("service.experiments.running"),
		// Queue-wait distribution per discipline: one histogram per
		// policy, so an FCFS deployment and a priority deployment are
		// directly comparable on /metrics.
		admWait: reg.Histogram("service.admission.wait."+d.Name()+".us", obs.DurationBucketsUS),
	}
	return s, nil
}

// Engine exposes the underlying engine (stats, tests).
func (s *Service) Engine() *engine.Engine { return s.eng }

// Metrics exposes the service registry.
func (s *Service) Metrics() *obs.Registry { return s.reg }

// Start launches the worker pool.
func (s *Service) Start() {
	for i := 0; i < s.cfg.MaxInflight; i++ {
		s.workers.Add(1)
		go s.worker()
	}
}

// Submit admits a sweep for tenant, returning the experiment and whether
// it was newly created (false means an identical sweep already exists —
// the caller is not charged quota and shares its lifecycle). The
// context's trace identity (obs.WithTrace — the HTTP middleware injects
// it) becomes the experiment's: every journal line it ever produces,
// spans included, carries that trace ID. A context without one
// gets a fresh ID. Admission failures return ErrQuota, ErrSaturated or
// ErrDraining, or a validation error for malformed specs.
func (s *Service) Submit(ctx context.Context, tenant string, spec Spec) (*Experiment, bool, error) {
	specs, meta, err := spec.Expand()
	if err != nil {
		return nil, false, err
	}
	id := ExperimentID(meta)
	tc, ok := obs.TraceFrom(ctx)
	if !ok {
		tc = obs.NewTraceContext()
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, false, ErrDraining
	}
	if exp, ok := s.exps[id]; ok {
		s.mu.Unlock()
		s.deduped.Add(1)
		// The existing experiment keeps its original trace identity; the
		// attach is recorded so its journal shows every request (any
		// tenant, any trace) that mapped onto this computation.
		exp.journal.Event("experiment.attached", "id", id,
			"tenant", tenant, "attached_trace", tc.Trace)
		return exp, false, nil
	}
	exp := &Experiment{
		ID:        id,
		Tenant:    tenant,
		Priority:  spec.Priority,
		Spec:      spec,
		State:     StateQueued,
		Submitted: time.Now(),
		specs:     specs,
		meta:      meta,
		tc:        tc,
	}
	exp.journal = obs.NewJournal(&exp.record).WithTrace(tc)
	s.exps[id] = exp
	s.order = append(s.order, id)
	s.mu.Unlock()

	if s.beforeAdmit != nil {
		s.beforeAdmit()
	}
	if err := s.adm.Submit(exp, spec.Priority); err != nil {
		// Other submissions may have registered since, and a duplicate
		// may have joined this one: it leaves by its own ID, and ends
		// failed, so whoever holds it sees why.
		s.mu.Lock()
		delete(s.exps, id)
		s.order = slices.DeleteFunc(s.order, func(o string) bool { return o == id })
		exp.State, exp.Err, exp.Finished = StateFailed, err.Error(), time.Now()
		s.mu.Unlock()
		exp.record.Close()
		return nil, false, err
	}
	s.submitted.Add(1)
	exp.journal.Event("experiment.queued",
		"id", id, "tenant", tenant, "specs", len(specs),
		"discipline", s.adm.Discipline(), "priority", spec.Priority)
	return exp, true, nil
}

// Get returns an experiment by ID.
func (s *Service) Get(id string) (*Experiment, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	exp, ok := s.exps[id]
	return exp, ok
}

// worker executes experiments until the admission queue closes.
func (s *Service) worker() {
	defer s.workers.Done()
	for {
		t, ok := s.adm.Next(s.runCtx)
		if !ok {
			return
		}
		s.run(t.exp)
		s.adm.Done(t.exp.Tenant)
	}
}

// run executes one experiment end to end.
func (s *Service) run(exp *Experiment) {
	s.mu.Lock()
	exp.State = StateRunning
	exp.Started = time.Now()
	specs, meta := exp.specs, exp.meta
	wait := exp.Started.Sub(exp.Submitted)
	s.mu.Unlock()
	s.running.Add(1)
	defer s.running.Add(-1)
	s.admWait.ObserveDuration(wait)

	// The request is a span from submission to finish, journaled as
	// experiment.finish; admission.done is the admission wait's span, its
	// first child. Everything the engine does for this experiment nests
	// under the request span: the shared engine writes exactly the jobs
	// it runs for this experiment into the journal the run context
	// carries, and SSE subscribers see job-level progress.
	req := exp.tc.Child()
	exp.journal.Event("admission.done", req.Child().Attrs([]any{"id", exp.ID,
		"name", "wait:" + s.adm.Discipline(), "wait_us", wait.Microseconds(),
		"discipline", s.adm.Discipline(), "dur_us", wait.Microseconds()})...)
	exp.journal.Event("experiment.start", "id", exp.ID, "specs", len(specs))
	ctx := obs.WithJournal(obs.WithTrace(s.runCtx, req), exp.journal)
	results, err := s.eng.Results(ctx, engine.Parallel{Workers: s.cfg.SimWorkers}, specs)

	prints := make([]string, len(results))
	for i, r := range results {
		if r != nil {
			prints[i] = fmt.Sprintf("%016x", r.Fingerprint())
		}
	}
	// The experiment's record is whole before its state says it is
	// finished: /trace renders it from then on.
	finished := time.Now()
	dur := finished.Sub(exp.Started)
	spanAttrs := req.Attrs([]any{"id", exp.ID, "name", "experiment:" + exp.ID,
		"tenant", exp.Tenant, "specs", len(specs), "run_us", dur.Microseconds(),
		"dur_us", finished.Sub(exp.Submitted).Microseconds()})
	if err != nil {
		s.failed.Add(1)
		exp.journal.Error("experiment.finish", err, spanAttrs...)
		s.log.Error("experiment failed", "id", exp.ID, "tenant", exp.Tenant, "error", err)
	} else {
		s.completed.Add(1)
		for i := range results {
			exp.journal.Event("experiment.result",
				"id", exp.ID, "scheme", meta[i].Scheme, "workload", meta[i].Workload,
				"cpus", meta[i].CPUs, "key", meta[i].Key, "fingerprint", prints[i])
		}
		exp.journal.Event("experiment.finish", spanAttrs...)
		s.log.Info("experiment done", "id", exp.ID, "tenant", exp.Tenant,
			"specs", len(specs), "dur", dur)
	}
	s.mu.Lock()
	exp.Finished = finished
	exp.results, exp.prints = results, prints
	if err != nil {
		exp.State = StateFailed
		exp.Err = err.Error()
	} else {
		exp.State = StateDone
	}
	s.mu.Unlock()
	exp.record.Close()
}

// Drain gracefully stops the service: new submissions are refused,
// queued-but-unstarted experiments are aborted, running ones finish and
// persist their results (bounded by ctx), and every event stream is
// closed. Safe to call once.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.adm.Close()

	for _, t := range s.adm.Flush() {
		s.mu.Lock()
		t.exp.State = StateAborted
		t.exp.Err = ErrDraining.Error()
		t.exp.Finished = time.Now()
		s.mu.Unlock()
		// Even an aborted experiment's request is a (queue-wait-only)
		// span, so its exported trace explains where the time went.
		t.exp.journal.Event("experiment.aborted", t.exp.tc.Child().Attrs([]any{"id", t.exp.ID,
			"name", "experiment:" + t.exp.ID, "tenant", t.exp.Tenant, "reason", "drain",
			"dur_us", t.exp.Finished.Sub(t.exp.Submitted).Microseconds()})...)
		t.exp.record.Close()
		s.adm.Done(t.exp.Tenant)
	}

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Cancel in-flight engine work and wait for the workers to
		// observe it; results computed so far are already persisted.
		s.runStop()
		<-done
		return fmt.Errorf("service: drain deadline exceeded, aborted running work: %w", ctx.Err())
	}
}

// Draining reports whether Drain has begun.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// RetryAfter estimates, in seconds, when a rejected request is worth
// retrying: roughly one queue's worth of work per worker, floored at 1s.
func (s *Service) RetryAfter() int {
	depth := s.adm.Depth()
	sec := depth / s.cfg.MaxInflight
	if sec < 1 {
		sec = 1
	}
	return sec
}
