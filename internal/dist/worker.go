package dist

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dirsim/internal/engine"
	"dirsim/internal/faults"
	"dirsim/internal/obs"
	"dirsim/internal/sim"
)

// ErrCrashed reports a worker that died to an injected crash: it
// abandoned its leased job, stopped heartbeating, and returned without a
// word to the coordinator — the lease expiry path, exercised end to end.
var ErrCrashed = errors.New("dist: worker crashed (injected)")

// Worker pulls jobs from a coordinator and executes them through its own
// engine. Its loop is deliberately boring: lease, heartbeat while
// simulating, push, repeat — all the failure handling lives in the
// coordinator and the client's retry discipline. A family walk's members
// arrive in one reply and run as one engine batch: one walk.
type Worker struct {
	// Name identifies the worker in leases, journals, and fault sites.
	Name string
	// Client speaks to the coordinator; its HTTP transport is where
	// fault injection wraps in.
	Client *Client
	// Engine executes the specs; a store-backed engine makes the worker
	// serve warm results without simulating. Required. The worker trims
	// it to the leased job's trace before and after every job
	// (Engine.Trim), so it should be the worker's own: an engine shared
	// with other callers still computes correct results, but may
	// regenerate traces and recompute results it would have kept.
	Engine *engine.Engine
	// Exec is the execution strategy per job; nil means Sequential.
	Exec engine.Executor
	// Poll is how long a lease request that finds no work may take: the
	// coordinator is asked to hold it that long (wait_ms), and the worker
	// idles whatever part it did not before asking again. 0 means 100ms.
	Poll time.Duration
	// Inj, when non-nil, drives injected worker crashes (Crash class):
	// the decision is per (worker, job key), so a fixed seed kills the
	// same worker on the same job every run.
	Inj *faults.Injector
	// Journal receives worker.* events and the engine's job lines; nil disables
	// them. The coordinator's splice names the worker on each shipped line.
	Journal *obs.Journal
	// Shipper, when non-nil, is the JournalShipper teed into Journal; a
	// job the coordinator traces flushes it before pushing its result.
	Shipper *JournalShipper
	// Metrics, when non-nil, is snapshotted (counters) onto every
	// heartbeat — the metric-federation path to the coordinator.
	Metrics *obs.Registry
	// Version is the worker binary's build identity (obs.Build),
	// stamped onto lease requests.
	Version string
	// Sleep replaces the idle-poll clock for tests; nil sleeps.
	Sleep func(time.Duration)

	// skew estimates the coordinator-minus-worker clock offset from
	// lease/heartbeat round trips; journal batches carry it so readers
	// can merge timelines onto the coordinator's clock.
	skew skewEstimator
}

// SkewNS returns the worker's current coordinator-minus-worker clock
// estimate (0, false before any timestamped response) — the value
// journal shippers tag batches with.
func (w *Worker) SkewNS() (int64, bool) { return w.skew.Offset() }

func (w *Worker) poll() time.Duration {
	if w.Poll > 0 {
		return w.Poll
	}
	return 100 * time.Millisecond
}

func (w *Worker) event(name string, tc obs.TraceContext, attrs ...any) {
	if w.Journal == nil {
		return
	}
	if tc.Valid() {
		attrs = append(attrs, "trace", tc.Trace)
	}
	w.Journal.Event(name, attrs...)
}

// Run pulls and executes jobs until ctx is cancelled (returns nil) or an
// injected crash kills the worker (returns ErrCrashed). Transport
// failures never kill the loop — an unreachable coordinator is polled
// again after the idle interval.
func (w *Worker) Run(ctx context.Context) error {
	w.event("worker.start", obs.TraceContext{})
	for {
		if err := ctx.Err(); err != nil {
			w.event("worker.stop", obs.TraceContext{})
			return nil
		}
		jobs, held, err := w.lease(ctx)
		if err != nil && ctx.Err() != nil {
			w.event("worker.stop", obs.TraceContext{})
			return nil
		}
		if err != nil || len(jobs) == 0 {
			// No work, or the coordinator is unreachable or pushing back
			// (held is then 0): idle out the rest of the interval.
			if serr := w.idle(ctx, w.poll()-held); serr != nil {
				w.event("worker.stop", obs.TraceContext{})
				return nil
			}
			continue
		}
		if err := w.runJob(ctx, jobs...); err != nil {
			if errors.Is(err, ErrCrashed) {
				return err
			}
			if ctx.Err() != nil {
				w.event("worker.stop", obs.TraceContext{})
				return nil
			}
		}
	}
}

func (w *Worker) idle(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	if w.Sleep != nil {
		w.Sleep(d)
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// lease asks for work, letting the coordinator hold the request for up
// to Poll when it has none; held is how long it says it did. jobs is the
// leased job followed by its group siblings.
func (w *Worker) lease(ctx context.Context) (jobs []*JobSpec, held time.Duration, err error) {
	var resp leaseResponse
	t0 := obs.Now()
	err = w.Client.Do(ctx, http.MethodPost, "/api/v1/dist/lease",
		leaseRequest{Worker: w.Name, Version: w.Version, WaitMS: w.poll().Milliseconds()}, &resp)
	if err != nil {
		return nil, 0, err
	}
	held = time.Duration(resp.HeldUS) * time.Microsecond
	// The round trip may include client-side retries, inflating the
	// apparent RTT; the estimator's min-RTT filter discards such samples.
	w.skew.Observe(t0, obs.Now(), resp.NowUnixNS, held)
	return resp.jobs(), held, nil
}

// counterSnapshot is the federated metric payload for heartbeats.
func (w *Worker) counterSnapshot() map[string]int64 {
	if w.Metrics == nil {
		return nil
	}
	return w.Metrics.Snapshot().Counters
}

// runJob executes the jobs of one lease reply as one engine batch: drop
// any whose spec does not hash to its key, crash if the injector says so,
// heartbeat every lease at TTL/3 while the batch runs, and push each job's
// result (or structured error) back under its own lease and trace
// context. A lease the coordinator answers 410 is lost: its job's result
// is not pushed, and the batch is cancelled once every lease is lost.
func (w *Worker) runJob(ctx context.Context, jobs ...*JobSpec) error {
	var run []*JobSpec
	var tcs []obs.TraceContext
	for _, job := range jobs {
		tc, _ := obs.ParseTraceContext(job.Trace)
		// End-to-end integrity on the request path: the job key IS the
		// content hash of the spec, so recomputing it catches a lease
		// response corrupted in flight into a different-but-parseable
		// spec. Without this check the worker would faithfully compute a
		// correct result for the wrong simulation — and its fingerprint,
		// computed over that wrong result, would sail through the
		// coordinator's revalidation. Dropping the job lets the lease
		// expire and requeue; its siblings run.
		if engine.KeyHex(job.Spec.Key()) != job.Key {
			w.event("worker.lease.corrupt", tc, "key", shortKey(job.Key), "lease", job.Lease)
			continue
		}
		run, tcs = append(run, job), append(tcs, tc)
	}
	if len(run) == 0 {
		return nil
	}
	for i, job := range run {
		if w.Inj.WorkerCrash(w.Name, job.Key) {
			// Die silently: no push, no further heartbeats. The coordinator
			// finds out when the leases expire.
			w.event("worker.crash", tcs[i], "key", shortKey(job.Key), "lease", job.Lease)
			return ErrCrashed
		}
	}
	// The engine's lines name the first lease, for the coordinator to
	// splice them into the request's journal under that lease's span: one
	// walk prices the whole batch.
	jctx := obs.WithJournal(obs.WithTrace(ctx, tcs[0]), w.Journal.WithTrace(tcs[0]).With("lease", run[0].Lease))
	// The engine holds this batch's trace and nothing else: trace affinity
	// means that when a lease moves a worker to another trace, no queued
	// task is left on the old one (DESIGN.md, "Decision record: what a
	// worker keeps"). The results go once they are pushed; the trace stays
	// for the next lease, most likely on it too.
	keep := run[0].Spec.Trace
	w.Engine.Trim(keep)
	defer w.Engine.Trim(keep)
	ttl := run[0].TTL()
	for i, job := range run {
		ttl = min(ttl, job.TTL())
		w.event("worker.job.start", tcs[i], "key", shortKey(job.Key), "lease", job.Lease,
			"scheme", job.Spec.Scheme, "workload", job.Spec.Trace.Name)
	}

	hbCtx, cancelJob := context.WithCancel(jctx)
	defer cancelJob()
	lost := make([]atomic.Bool, len(run))
	var hb sync.WaitGroup
	hb.Add(1)
	go func() {
		defer hb.Done()
		interval := ttl / 3
		if interval <= 0 {
			interval = time.Second
		}
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if !w.heartbeat(hbCtx, run, tcs, lost) {
					cancelJob()
					return
				}
			case <-hbCtx.Done():
				return
			}
		}
	}()

	res, simErrs := w.simulate(hbCtx, run)
	cancelJob()
	hb.Wait()
	if ctx.Err() != nil {
		// The worker itself is shutting down mid-job; a cancellation
		// error is the shutdown's artifact, not the job's outcome.
		return nil
	}
	var first error
	flushed := false
	for i, job := range run {
		if lost[i].Load() {
			// The lease was lost mid-run (expired, or a hedge twin already
			// delivered); anything we push would be discarded.
			continue
		}
		push := resultPush{Worker: w.Name, Lease: job.Lease, Key: job.Key}
		if simErrs[i] != nil {
			push.Error = EncodeError(simErrs[i])
			w.event("worker.job.error", tcs[i], "key", shortKey(job.Key), "error", simErrs[i].Error())
		} else {
			push.Result = res[i]
			push.Fingerprint = "0x" + strconv.FormatUint(res[i].Fingerprint(), 16)
			w.event("worker.job.finish", tcs[i], "key", shortKey(job.Key),
				"fingerprint", push.Fingerprint)
		}
		if tcs[i].Parent != 0 && w.Shipper != nil && !flushed {
			// The coordinator is tracing the job: its spans go home first.
			w.Shipper.Flush(ctx)
			flushed = true
		}
		if err := w.push(obs.WithTrace(ctx, tcs[i]), tcs[i], &push); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// heartbeat renews every lease of run not yet lost, marking one the
// coordinator answers 410 (expired, or a hedge twin already delivered)
// as lost. It reports whether any lease is still held. Transport
// failures are tolerated: the client already retried, and one missed
// renewal inside the TTL is fine.
func (w *Worker) heartbeat(ctx context.Context, run []*JobSpec, tcs []obs.TraceContext, lost []atomic.Bool) bool {
	held := false
	for i, job := range run {
		if lost[i].Load() {
			continue
		}
		var hresp heartbeatResponse
		t0 := obs.Now()
		err := w.Client.Do(obs.WithTrace(ctx, tcs[i]), http.MethodPost, "/api/v1/dist/heartbeat",
			heartbeatRequest{Worker: w.Name, Lease: job.Lease, Counters: w.counterSnapshot()}, &hresp)
		if err == nil {
			w.skew.Observe(t0, obs.Now(), hresp.NowUnixNS, 0)
		}
		if IsStatus(err, http.StatusGone) {
			w.event("worker.lease.lost", tcs[i], "key", shortKey(job.Key), "lease", job.Lease)
			lost[i].Store(true)
			continue
		}
		held = true
	}
	return held
}

// push delivers the completion report. A 410 is success-shaped (the job
// completed elsewhere; our bytes are discarded). A 400 means the body did
// not decode — mangled in flight — so the coordinator never saw the push
// and the lease is untouched: it is re-marshaled and resent a couple of
// times before the lease is left to expire. A 422 is final: the
// coordinator decoded the push, failed its revalidation, resolved the
// lease and requeued the job, so a resend could only be discarded.
func (w *Worker) push(ctx context.Context, tc obs.TraceContext, p *resultPush) error {
	var last error
	for attempt := 0; attempt < 3; attempt++ {
		err := w.Client.Do(ctx, http.MethodPost, "/api/v1/dist/result", p, nil)
		switch {
		case err == nil:
			return nil
		case IsStatus(err, http.StatusGone):
			w.event("worker.push.discarded", tc, "key", shortKey(p.Key), "lease", p.Lease)
			return nil
		case IsStatus(err, http.StatusUnprocessableEntity):
			w.event("worker.push.rejected", tc, "key", shortKey(p.Key), "attempt", attempt)
			return fmt.Errorf("dist: push for %s failed revalidation: %w", shortKey(p.Key), err)
		case IsStatus(err, http.StatusBadRequest):
			last = err
		default:
			return err
		}
	}
	return fmt.Errorf("dist: push for %s kept failing to decode: %w", shortKey(p.Key), last)
}

// simulate runs the jobs' specs through the worker's engine as one batch,
// so the family members among them are priced from one walk, and returns
// each job's result or error: a spec the engine cannot run fails alone,
// and a failed simulation carries the error the engine's *Partial names it
// by (a *engine.JobError — the value EncodeError ships across the wire
// intact).
func (w *Worker) simulate(ctx context.Context, jobs []*JobSpec) ([]*sim.Result, []error) {
	rs, errs := make([]*sim.Result, len(jobs)), make([]error, len(jobs))
	var specs []engine.SimSpec
	var at []int
	for i, job := range jobs {
		if errs[i] = job.Spec.Validate(); errs[i] == nil {
			specs, at = append(specs, job.Spec), append(at, i)
		}
	}
	if len(specs) == 0 {
		return rs, errs
	}
	got, err := w.Engine.Results(ctx, w.Exec, specs)
	p, _ := engine.AsPartial(err)
	for n, i := range at {
		switch {
		case got != nil && got[n] != nil:
			rs[i] = got[n]
		case p != nil && p.Failed[specs[n].Name()] != nil:
			errs[i] = p.Failed[specs[n].Name()]
		default:
			errs[i] = err
		}
	}
	return rs, errs
}
