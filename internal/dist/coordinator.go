package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dirsim/internal/engine"
	"dirsim/internal/obs"
	"dirsim/internal/sim"
)

// Options tunes a Coordinator. The zero value takes the package defaults.
type Options struct {
	// LeaseTTL is how long a granted lease lives without a heartbeat;
	// expiry reassigns the job.
	LeaseTTL time.Duration
	// HedgeAfter is how long a job's oldest lease may run before an idle
	// worker is handed a hedge lease on the same job. First valid
	// fingerprint wins; the loser's push is discarded deterministically.
	HedgeAfter time.Duration
	// DegradeAfter is how long a queued job may sit with the whole fleet
	// silent (no lease granted to anyone) before it degrades to local.
	DegradeAfter time.Duration
	// Metrics is the registry the dist.* counters live on; nil means a
	// private one. Journal receives the job.*, result.* and worker.*
	// events; nil disables them.
	Metrics *obs.Registry
	Journal *obs.Journal
	// Clock substitutes the real clock for tests; nil means obs.Now, the
	// journal clock, whose readings the workers' skew estimates compare.
	Clock func() time.Time
}

func (o Options) withDefaults() Options {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = DefaultLeaseTTL
	}
	if o.HedgeAfter <= 0 {
		o.HedgeAfter = DefaultHedgeAfter
	}
	if o.DegradeAfter <= 0 {
		o.DegradeAfter = DefaultDegradeAfter
	}
	if o.Clock == nil {
		o.Clock = obs.Now
	}
	return o
}

// task is one queued simulation: the unit of leasing, hedging, retry
// accounting, and completion.
type task struct {
	key  string
	spec engine.SimSpec
	// trace keys the workload a worker must generate to run the spec.
	trace engine.Key
	tc    obs.TraceContext
	// jnl is the submitting request's journal, nil when it keeps none.
	// queue is the task's dist:queue span, valid when the request is
	// traced and journaled; each lease's dist:lease span nests under it,
	// and their lines and the worker spans shipped under a live lease
	// land in jnl.
	jnl   *obs.Journal
	queue obs.TraceContext

	// group is the tasks one SimulateRemote call queued together (a
	// family walk's members), this one included. A worker that runs
	// groups is granted the task's queued siblings with it.
	group []*task

	attempts int // transport-class failures so far
	hedges   int
	waiters  int // SimulateRemote calls that have joined the task, its submitter included
	queued   bool
	leases   map[string]*lease
	// enqueuedAt / firstLeased / lastActivity drive hedge and degrade
	// timers; lastActivity resets on enqueue, requeue, and lease grant.
	enqueuedAt   time.Time
	firstLeased  time.Time
	lastActivity time.Time

	done bool
	res  *sim.Result
	err  error
	ch   chan struct{}
}

// lease is one worker's claim on a task. tc is its dist:lease span,
// whose ID is shipped to the worker as the job's remote parent; the span
// is journaled, with its outcome, when the lease resolves.
type lease struct {
	id      string
	worker  string
	task    *task
	granted time.Time
	expires time.Time
	hedge   bool

	tc       obs.TraceContext
	resolved bool
}

// workerState is the coordinator's per-worker bookkeeping: the circuit
// breaker, plus the fleet-observability view — utilization, in-flight
// leases, push latency, the last heartbeat counter snapshot, shipped
// journal accounting, and the worker's own skew estimate.
type workerState struct {
	name      string
	fails     int
	openUntil time.Time
	probing   bool

	lastTrace engine.Key // trace of the previous grant: its engine holds it

	version  string
	joined   time.Time
	lastSeen time.Time
	inflight int
	// busy is the time the worker held at least one lease, up to
	// busySince, when it last went from none to one: a group's leases
	// overlap and count once.
	busy      time.Duration
	busySince time.Time
	accepted  int64
	rejected  int64
	expired   int64
	skewNS    int64
	skewSet   bool
	counters  map[string]int64 // last heartbeat snapshot

	shippedBatches int64
	shippedLines   int64
	shipDropped    int64 // cumulative, as reported by the worker

	pushUS        *obs.Histogram
	inflightGauge *obs.Gauge
	utilGauge     *obs.Gauge
}

// Coordinator owns the distributed job table: it implements
// engine.Remote by queueing specs for pulling workers, revalidates every
// pushed result, and converts each failure into a requeue, a degrade, or
// a terminal structured error (see the package comment for the ladder).
// All methods are safe for concurrent use.
type Coordinator struct {
	opts Options
	reg  *obs.Registry
	jnl  *obs.Journal

	mu      sync.Mutex
	tasks   map[string]*task
	queue   []*task
	leases  map[string]*lease
	workers map[string]*workerState
	seq     int64
	// lastGrant is the last time any lease was granted — the fleet
	// liveness signal the degrade scan keys on.
	lastGrant time.Time
	closed    bool
	// wake is closed and replaced when a task is queued or the coordinator
	// closes: the broadcast to parked lease requests, which parked counts
	// for Close to wait out. newTimer arms their holds (a test seam).
	wake     chan struct{}
	parked   sync.WaitGroup
	newTimer func(time.Duration) *time.Timer

	stop    chan struct{}
	sweeper sync.WaitGroup

	jobsSubmitted *obs.Counter
	jobsCompleted *obs.Counter
	jobsFailed    *obs.Counter
	jobsDegraded  *obs.Counter
	jobsRequeued  *obs.Counter
	jobsHedged    *obs.Counter
	leasesGranted *obs.Counter
	leasesAffine  *obs.Counter
	leasesRenewed *obs.Counter
	leasesExpired *obs.Counter
	resAccepted   *obs.Counter
	resRejected   *obs.Counter
	resDuplicate  *obs.Counter
	workersJoined *obs.Counter
	workersBroken *obs.Counter
	jnlBatches    *obs.Counter
	jnlLines      *obs.Counter
	jnlRejected   *obs.Counter
	jnlDropped    *obs.Gauge
}

// NewCoordinator builds a coordinator and starts its lease sweeper.
func NewCoordinator(opts Options) *Coordinator {
	opts = opts.withDefaults()
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := &Coordinator{
		opts:    opts,
		reg:     reg,
		jnl:     opts.Journal,
		tasks:   make(map[string]*task),
		leases:  make(map[string]*lease),
		workers: make(map[string]*workerState),
		stop:    make(chan struct{}),
		wake:    make(chan struct{}),

		newTimer: time.NewTimer,

		jobsSubmitted: reg.Counter("dist.jobs.submitted"),
		jobsCompleted: reg.Counter("dist.jobs.completed"),
		jobsFailed:    reg.Counter("dist.jobs.failed"),
		jobsDegraded:  reg.Counter("dist.jobs.degraded"),
		jobsRequeued:  reg.Counter("dist.jobs.requeued"),
		jobsHedged:    reg.Counter("dist.jobs.hedged"),
		leasesGranted: reg.Counter("dist.leases.granted"),
		leasesAffine:  reg.Counter("dist.leases.affine"),
		leasesRenewed: reg.Counter("dist.leases.renewed"),
		leasesExpired: reg.Counter("dist.leases.expired"),
		resAccepted:   reg.Counter("dist.results.accepted"),
		resRejected:   reg.Counter("dist.results.rejected"),
		resDuplicate:  reg.Counter("dist.results.duplicate"),
		workersJoined: reg.Counter("dist.workers.joined"),
		workersBroken: reg.Counter("dist.workers.broken"),
		jnlBatches:    reg.Counter("dist.journal.batches"),
		jnlLines:      reg.Counter("dist.journal.lines"),
		jnlRejected:   reg.Counter("dist.journal.rejected"),
		jnlDropped:    reg.Gauge("dist.journal.dropped"),
	}
	c.sweeper.Add(1)
	go c.sweepLoop()
	return c
}

// Stats is a snapshot of the coordinator's lifetime counters. The
// accounting invariant every run must satisfy:
//
//	JobsSubmitted == JobsCompleted + JobsDegraded + JobsFailed
//
// — no job is ever silently dropped.
type Stats struct {
	JobsSubmitted, JobsCompleted, JobsFailed, JobsDegraded int64
	JobsRequeued, JobsHedged                               int64
	LeasesGranted, LeasesRenewed, LeasesExpired            int64
	LeasesAffine                                           int64 // grants on the trace of the worker's previous one
	ResultsAccepted, ResultsRejected, ResultsDuplicate     int64
	WorkersJoined, WorkersBroken                           int64
	// Workers is the federated per-worker breakdown (sorted by name):
	// utilization, in-flight leases, push latency quantiles, last
	// heartbeat counter snapshot, shipped-journal accounting.
	Workers []WorkerStats `json:",omitempty"`
}

// WorkerStats is the coordinator's federated view of one worker.
type WorkerStats struct {
	Name     string    `json:"name"`
	Version  string    `json:"version,omitempty"`
	Joined   time.Time `json:"joined"`
	LastSeen time.Time `json:"last_seen"`
	// Inflight is the worker's currently held leases; BusyMS the time it
	// held at least one (overlapping leases count once, the open stretch
	// included);
	// UtilizationPct = BusyMS over the worker's membership so far.
	Inflight       int     `json:"inflight"`
	BusyMS         int64   `json:"busy_ms"`
	UtilizationPct float64 `json:"utilization_pct"`
	Accepted       int64   `json:"accepted"`
	Rejected       int64   `json:"rejected"`
	Expired        int64   `json:"expired"`
	// Push latency (lease grant → accepted/rejected push) quantiles, µs.
	PushP50US int64 `json:"push_p50_us,omitempty"`
	PushP99US int64 `json:"push_p99_us,omitempty"`
	// SkewNS is the worker's own coordinator-minus-worker clock estimate
	// as last reported on a journal batch or result push.
	SkewNS  int64 `json:"skew_ns"`
	SkewSet bool  `json:"skew_set,omitempty"`
	// Shipped-journal accounting; Dropped is the worker's cumulative
	// buffer-overflow loss count.
	ShippedBatches int64 `json:"shipped_batches"`
	ShippedLines   int64 `json:"shipped_lines"`
	ShipDropped    int64 `json:"ship_dropped"`
	// Counters is the worker's last heartbeat metric snapshot.
	Counters map[string]int64 `json:"counters,omitempty"`
}

// Stats returns a snapshot of the coordinator's counters, including the
// per-worker breakdown.
func (c *Coordinator) Stats() Stats {
	s := Stats{
		JobsSubmitted:    c.jobsSubmitted.Value(),
		JobsCompleted:    c.jobsCompleted.Value(),
		JobsFailed:       c.jobsFailed.Value(),
		JobsDegraded:     c.jobsDegraded.Value(),
		JobsRequeued:     c.jobsRequeued.Value(),
		JobsHedged:       c.jobsHedged.Value(),
		LeasesGranted:    c.leasesGranted.Value(),
		LeasesAffine:     c.leasesAffine.Value(),
		LeasesRenewed:    c.leasesRenewed.Value(),
		LeasesExpired:    c.leasesExpired.Value(),
		ResultsAccepted:  c.resAccepted.Value(),
		ResultsRejected:  c.resRejected.Value(),
		ResultsDuplicate: c.resDuplicate.Value(),
		WorkersJoined:    c.workersJoined.Value(),
		WorkersBroken:    c.workersBroken.Value(),
	}
	c.mu.Lock()
	now := c.opts.Clock()
	for _, w := range c.workers {
		ws := WorkerStats{
			Name:           w.name,
			Version:        w.version,
			Joined:         w.joined,
			LastSeen:       w.lastSeen,
			Inflight:       w.inflight,
			Accepted:       w.accepted,
			Rejected:       w.rejected,
			Expired:        w.expired,
			SkewNS:         w.skewNS,
			SkewSet:        w.skewSet,
			ShippedBatches: w.shippedBatches,
			ShippedLines:   w.shippedLines,
			ShipDropped:    w.shipDropped,
			Counters:       w.counters,
		}
		// The open busy stretch counts, so utilization reflects jobs still
		// running, not only resolved ones.
		busy := w.busy
		if w.inflight > 0 && now.After(w.busySince) {
			busy += now.Sub(w.busySince)
		}
		ws.BusyMS = busy.Milliseconds()
		if up := now.Sub(w.joined); up > 0 {
			ws.UtilizationPct = 100 * float64(busy) / float64(up)
		}
		if hs := w.pushUS.Snapshot(); hs.Count > 0 {
			ws.PushP50US = int64(hs.Quantile(0.50))
			ws.PushP99US = int64(hs.Quantile(0.99))
		}
		s.Workers = append(s.Workers, ws)
	}
	c.mu.Unlock()
	sort.Slice(s.Workers, func(i, j int) bool { return s.Workers[i].Name < s.Workers[j].Name })
	return s
}

// event journals one coordinator event, tagged with the task's trace so
// dirsimq filter -trace reconstructs the cross-process chain.
func (c *Coordinator) event(name string, t *task, attrs ...any) {
	if c.jnl == nil {
		return
	}
	if t != nil {
		attrs = append(attrs, "key", shortKey(t.key))
		if t.tc.Valid() {
			attrs = append(attrs, "trace", t.tc.Trace)
		}
	}
	c.jnl.Event(name, attrs...)
}

func shortKey(k string) string {
	if len(k) > 12 {
		return k[:12]
	}
	return k
}

// SimulateRemote implements engine.Remote: queue each spec as its own
// task — under one lock hold, with one wake for parked lease requests —
// marking those it queues as one group, which a worker that runs groups is
// granted together; then wait for the fleet to deliver each a validated
// result, and classify every other outcome per the package ladder, member
// by member. An error wrapping engine.ErrRemoteUnavailable tells the
// engine to compute that member locally.
func (c *Coordinator) SimulateRemote(ctx context.Context, specs []engine.SimSpec) ([]*sim.Result, []error) {
	rs, errs := make([]*sim.Result, len(specs)), make([]error, len(specs))
	tasks := make([]*task, len(specs))
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		for i := range errs {
			errs[i] = fmt.Errorf("dist: coordinator closed: %w", engine.ErrRemoteUnavailable)
		}
		return rs, errs
	}
	var group []*task
	for i, spec := range specs {
		key := engine.KeyHex(spec.Key())
		t, ok := c.tasks[key]
		if !ok {
			now := c.opts.Clock()
			t = &task{
				key:          key,
				spec:         spec,
				trace:        engine.TraceKey(spec.Trace),
				leases:       make(map[string]*lease),
				enqueuedAt:   now,
				lastActivity: now,
				ch:           make(chan struct{}),
			}
			if tc, ok := obs.TraceFrom(ctx); ok {
				t.tc = tc
			}
			// The dispatch spans nest under the span enclosing the remote
			// call (the engine job's attempt), in the request's journal.
			if t.jnl = obs.JournalFrom(ctx); t.jnl != nil {
				t.queue = t.tc.Child()
			}
			c.tasks[key] = t
			c.enqueueLocked(t)
			c.jobsSubmitted.Inc()
			c.event("job.queue", t, "scheme", spec.Scheme, "workload", spec.Trace.Name)
			group = append(group, t)
		}
		t.waiters++
		tasks[i] = t
	}
	for _, t := range group {
		t.group = group
	}
	if len(group) > 0 {
		c.wakeLocked()
	}
	c.mu.Unlock()

	for i, t := range tasks {
		select {
		case <-t.ch:
		case <-ctx.Done():
			errs[i] = ctx.Err()
			continue
		}
		c.mu.Lock()
		rs[i], errs[i] = t.res, t.err
		c.mu.Unlock()
	}
	return rs, errs
}

// enqueueLocked puts t on the queue; the caller wakes the parked lease
// requests (wakeLocked).
func (c *Coordinator) enqueueLocked(t *task) {
	if t.queued || t.done {
		return
	}
	t.queued = true
	c.queue = append(c.queue, t)
}

func (c *Coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// completeLocked finishes a task — exactly once — releasing its waiters
// and invalidating every outstanding lease, so a hedge loser's later
// push finds no lease and is discarded as a duplicate. Outstanding
// leases resolve as superseded, and a task never leased journals its
// dist:queue span now.
func (c *Coordinator) completeLocked(t *task, res *sim.Result, err error) {
	if t.done {
		return
	}
	t.done = true
	t.res, t.err = res, err
	close(t.ch)
	delete(c.tasks, t.key)
	open := make([]*lease, 0, len(t.leases))
	for _, l := range t.leases {
		open = append(open, l)
	}
	sort.Slice(open, func(i, j int) bool { return open[i].id < open[j].id })
	for _, l := range open {
		c.resolveLeaseLocked(l, "superseded", "")
	}
	t.leases = map[string]*lease{}
	if t.firstLeased.IsZero() {
		var errAttr []any
		if err != nil {
			errAttr = []any{"error", err.Error()}
		}
		c.spanLocked(t, "dist.queue", t.queue, t.enqueuedAt, errAttr...)
	}
}

// resolveLeaseLocked settles one lease exactly once: journals its
// dist:lease span with the outcome, removes it from the tables, and
// updates the worker's utilization accounting.
func (c *Coordinator) resolveLeaseLocked(l *lease, outcome, errMsg string) {
	if l == nil || l.resolved {
		return
	}
	l.resolved = true
	ended := c.opts.Clock()
	delete(c.leases, l.id)
	delete(l.task.leases, l.id)
	if w := c.workers[l.worker]; w != nil {
		if w.inflight--; w.inflight == 0 && ended.After(w.busySince) {
			w.busy += ended.Sub(w.busySince)
		}
		c.workerGaugesLocked(w)
	}
	attrs := []any{"worker", l.worker, "lease", l.id, "hedge", l.hedge, "outcome", outcome}
	switch outcome {
	case "expired", "rejected", "error":
		if errMsg != "" {
			outcome += ": " + errMsg
		}
		attrs = append(attrs, "error", outcome)
	}
	c.spanLocked(l.task, "dist.lease", l.tc, l.granted, attrs...)
}

// spanLocked journals a traced task's dispatch span tc, begun at start,
// named msg's colon form ("dist:queue"): in the request's journal, and
// in the fleet journal, where the queue span is a root because the
// request's spans are not there.
func (c *Coordinator) spanLocked(t *task, msg string, tc obs.TraceContext, start time.Time, attrs ...any) {
	if tc.Span == 0 {
		return
	}
	attrs = append(attrs, "name", strings.Replace(msg, ".", ":", 1),
		"dur_us", c.opts.Clock().Sub(start).Microseconds())
	t.jnl.Event(msg, tc.Attrs(append([]any{"key", shortKey(t.key)}, attrs...))...)
	if tc == t.queue {
		tc.Parent = 0
	}
	c.event(msg, t, tc.Attrs(attrs)...)
}

// workerGaugesLocked refreshes the worker's /metrics gauges.
func (c *Coordinator) workerGaugesLocked(w *workerState) {
	if w.inflightGauge == nil {
		return
	}
	w.inflightGauge.Set(int64(w.inflight))
	now := c.opts.Clock()
	if up := now.Sub(w.joined); up > 0 {
		w.utilGauge.Set(int64(100 * float64(w.busy) / float64(up)))
	}
}

// requeueLocked sends a task back to the queue after a transport-class
// failure, or degrades it when the attempt budget is spent.
func (c *Coordinator) requeueLocked(t *task, cause string) {
	if t.done {
		return
	}
	t.attempts++
	if t.attempts >= maxAttempts {
		c.degradeLocked(t, fmt.Sprintf("attempts exhausted (%d): %s", t.attempts, cause))
		return
	}
	c.jobsRequeued.Inc()
	c.event("job.requeue", t, "attempt", t.attempts, "cause", cause)
	t.lastActivity = c.opts.Clock()
	c.enqueueLocked(t)
	c.wakeLocked()
}

// degradeLocked abandons remote execution for a task: its waiter gets
// engine.ErrRemoteUnavailable and the engine computes locally.
func (c *Coordinator) degradeLocked(t *task, reason string) {
	c.jobsDegraded.Inc()
	c.event("job.degrade", t, "reason", reason)
	c.completeLocked(t, nil, fmt.Errorf("dist: job %s degraded to local: %s: %w",
		shortKey(t.key), reason, engine.ErrRemoteUnavailable))
}

// workerLocked upserts a worker's state. version, when non-empty,
// stamps (or refreshes) the worker's build identity. Joining allocates
// the worker's per-worker instruments (names sanitized and bounded like
// tenant labels).
func (c *Coordinator) workerLocked(name, version string) *workerState {
	w, ok := c.workers[name]
	if !ok {
		now := c.opts.Clock()
		label := obs.SanitizeLabel(name)
		w = &workerState{
			name:          name,
			joined:        now,
			lastSeen:      now,
			pushUS:        c.reg.Histogram("dist.worker."+label+".push.us", obs.DurationBucketsUS),
			inflightGauge: c.reg.Gauge("dist.worker." + label + ".inflight"),
			utilGauge:     c.reg.Gauge("dist.worker." + label + ".utilization_pct"),
		}
		c.workers[name] = w
		c.workersJoined.Inc()
		w.version = version
		c.event("worker.join", nil, "worker", name, "version", version)
	} else if version != "" {
		w.version = version
	}
	w.lastSeen = c.opts.Clock()
	return w
}

// workerFailureLocked records a failure attributed to a worker and trips
// its breaker at the threshold (or immediately when a half-open probe
// fails).
func (c *Coordinator) workerFailureLocked(w *workerState, cause string) {
	if w == nil {
		return
	}
	w.fails++
	if w.probing || w.fails >= breakerThreshold {
		w.probing = false
		w.fails = 0
		w.openUntil = c.opts.Clock().Add(c.breakerCooldown())
		c.workersBroken.Inc()
		c.event("worker.break", nil, "worker", w.name, "cause", cause,
			"cooldown_ms", c.breakerCooldown().Milliseconds())
	}
}

// breakerCooldown is how long an open breaker answers lease requests
// with 429 + Retry-After before a half-open probe: 3·LeaseTTL/2.
func (c *Coordinator) breakerCooldown() time.Duration { return 3 * c.opts.LeaseTTL / 2 }

// sweepEvery is the lease-expiry scan interval: LeaseTTL/4.
func (c *Coordinator) sweepEvery() time.Duration { return c.opts.LeaseTTL / 4 }

func (c *Coordinator) workerSuccessLocked(w *workerState) {
	if w == nil {
		return
	}
	w.fails = 0
	w.probing = false
	w.openUntil = time.Time{}
}

// maxLeaseHold caps how long one lease request is parked: several of
// dirsimw's default polls, well inside every lease, drain and HTTP timeout.
const maxLeaseHold = 5 * time.Second

// leaseWait grants the next job to a pulling worker — with its queued
// group siblings after it when the worker runs groups. It returns no job
// when there is no work, and none with retryAfter > 0 when the worker's
// breaker is open — the HTTP layer turns that into 429 + Retry-After.
// version is the worker's build identity (may be empty).
// Finding nothing to grant, it parks for up to hold (capped by the
// caller at maxLeaseHold) instead of sending the worker off to poll: it
// looks again whenever a task is queued, and gives up when the hold runs
// out, ctx ends or the coordinator closes. held is how long it parked:
// what the worker leaves out of its skew sample and idle sleep.
func (c *Coordinator) leaseWait(ctx context.Context, workerName, version string, groups bool, hold time.Duration) (jobs []*JobSpec, retryAfter, held time.Duration) {
	start := time.Now()
	var expired <-chan time.Time
	for ctx.Err() == nil { // a grant nobody is left to receive would only sit out its TTL
		c.mu.Lock()
		jobs, retryAfter = c.grantLocked(workerName, version, groups, held)
		wake := c.wake
		park := jobs == nil && retryAfter == 0 && hold > 0 && !c.closed
		if park {
			c.parked.Add(1)
		}
		c.mu.Unlock()
		if !park {
			return jobs, retryAfter, held
		}
		if expired == nil {
			t := c.newTimer(hold)
			defer t.Stop()
			expired = t.C
		}
		select {
		case <-wake:
		case <-ctx.Done():
		case <-expired:
			hold = 0 // one last look, then reply empty
		}
		c.parked.Done()
		held = time.Since(start)
	}
	return nil, 0, held
}

// grantLocked is one look at the job table on a worker's behalf: a grant,
// a breaker pushback, or nothing. A grant to a worker that runs groups
// also leases every queued sibling of the picked task, each under its own
// lease; a hedge goes alone. held, so far, is for the journal.
func (c *Coordinator) grantLocked(workerName, version string, groups bool, held time.Duration) ([]*JobSpec, time.Duration) {
	if c.closed {
		return nil, 0
	}
	w := c.workerLocked(workerName, version)
	now := c.opts.Clock()
	if now.Before(w.openUntil) {
		return nil, w.openUntil.Sub(now)
	}
	if w.probing {
		// A half-open probe is already in flight; hold further grants to
		// this worker until it resolves.
		return nil, c.sweepEvery()
	}
	probe := !w.openUntil.IsZero()

	t, hedge := c.nextTaskLocked(w, now)
	if t == nil {
		return nil, 0
	}
	if probe {
		w.probing = true
		c.event("worker.probe", t, "worker", workerName)
	}
	jobs := []*JobSpec{c.leaseLocked(w, t, hedge, now, held)}
	if !groups || hedge {
		return jobs, 0
	}
	var siblings []*task
	for _, s := range t.group {
		if s.queued && !s.done {
			s.queued = false
			siblings = append(siblings, s)
		}
	}
	if len(siblings) > 0 {
		c.queue = slices.DeleteFunc(c.queue, func(q *task) bool { return !q.queued })
	}
	for _, s := range siblings {
		jobs = append(jobs, c.leaseLocked(w, s, false, now, held))
	}
	return jobs, 0
}

// leaseLocked grants w a lease on t and returns the job it travels as.
func (c *Coordinator) leaseLocked(w *workerState, t *task, hedge bool, now time.Time, held time.Duration) *JobSpec {
	c.seq++
	l := &lease{
		id:      "L" + strconv.FormatInt(c.seq, 10),
		worker:  w.name,
		task:    t,
		granted: now,
		expires: now.Add(c.opts.LeaseTTL),
		hedge:   hedge,
		// The lease span's ID crosses the wire now; its line is written
		// when the lease resolves.
		tc: t.queue.Child(),
	}
	t.leases[l.id] = l
	c.leases[l.id] = l
	t.lastActivity = now
	c.lastGrant = now
	if t.firstLeased.IsZero() {
		t.firstLeased = now
		c.spanLocked(t, "dist.queue", t.queue, t.enqueuedAt)
	}
	affine := t.trace == w.lastTrace
	w.lastTrace = t.trace
	if w.inflight++; w.inflight == 1 {
		w.busySince = now
	}
	c.workerGaugesLocked(w)
	c.leasesGranted.Inc()
	if affine {
		c.leasesAffine.Inc()
	}
	if hedge {
		t.hedges++
		c.jobsHedged.Inc()
		c.event("job.hedge", t, "worker", w.name, "lease", l.id, "leases", len(t.leases))
	}
	c.event("job.lease", t, "worker", w.name, "lease", l.id,
		"attempt", t.attempts, "hedge", hedge, "affine", affine, "held_us", held.Microseconds())
	return &JobSpec{
		Key:   t.key,
		Spec:  t.spec,
		Lease: l.id,
		TTLMS: c.opts.LeaseTTL.Milliseconds(),
		// The worker adopts the request's trace with the lease's span as
		// its remote parent.
		Trace: obs.TraceContext{Trace: t.tc.Trace, Parent: l.tc.Span}.String(),
	}
}

// nextTaskLocked takes w's pick off the queue (pickLocked); with the queue
// empty it considers hedging a straggler: the task whose oldest lease has
// run longest past HedgeAfter, deterministically tie-broken by key,
// capped by maxLeases and never doubling a worker up on its own job.
func (c *Coordinator) nextTaskLocked(w *workerState, now time.Time) (*task, bool) {
	// Tasks degraded while queued leave here. Delete and DeleteFunc clear
	// the slots they vacate: no granted task stays reachable from the array.
	c.queue = slices.DeleteFunc(c.queue, func(t *task) bool { return t.done })
	if len(c.queue) > 0 {
		i := c.pickLocked(w, now)
		t := c.queue[i]
		c.queue = slices.Delete(c.queue, i, i+1)
		t.queued = false
		return t, false
	}
	var cands []*task
	for _, t := range c.tasks {
		if t.done || len(t.leases) == 0 || len(t.leases) >= maxLeases {
			continue
		}
		if now.Sub(t.firstLeased) < c.opts.HedgeAfter {
			continue
		}
		mine := false
		for _, l := range t.leases {
			if l.worker == w.name {
				mine = true
				break
			}
		}
		if !mine {
			cands = append(cands, t)
		}
	}
	if len(cands) == 0 {
		return nil, false
	}
	sort.Slice(cands, func(i, j int) bool {
		if !cands[i].firstLeased.Equal(cands[j].firstLeased) {
			return cands[i].firstLeased.Before(cands[j].firstLeased)
		}
		return cands[i].key < cands[j].key
	})
	return cands[0], true
}

// pickLocked chooses which queued task (by index; the queue is oldest
// first and non-empty) w is granted, so that the fleet generates each
// trace as few times as it can without idling anyone: one on the trace of
// w's previous grant, else the oldest whose trace no other worker holds an
// unresolved lease on, else the oldest. None is passed over past HedgeAfter.
func (c *Coordinator) pickLocked(w *workerState, now time.Time) int {
	if now.Sub(c.queue[0].lastActivity) >= c.opts.HedgeAfter {
		return 0
	}
	claimed := make(map[engine.Key]bool)
	for _, l := range c.leases {
		if l.worker != w.name {
			claimed[l.task.trace] = true
		}
	}
	free := -1
	for i, t := range c.queue {
		if t.trace == w.lastTrace {
			return i
		}
		if free < 0 && !claimed[t.trace] {
			free = i
		}
	}
	return max(free, 0)
}

// Heartbeat renews a lease; false means the lease is gone (expired,
// superseded, or its job already completed) and the worker should abandon
// the work. counters, when non-nil, is the worker's federated metric
// snapshot (kept as the latest, exposed via Stats).
func (c *Coordinator) Heartbeat(workerName, leaseID string, counters map[string]int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w := c.workers[workerName]; w != nil {
		w.lastSeen = c.opts.Clock()
		if counters != nil {
			w.counters = counters
		}
	}
	l, ok := c.leases[leaseID]
	if !ok || l.worker != workerName || l.task.done {
		return false
	}
	l.expires = c.opts.Clock().Add(c.opts.LeaseTTL)
	c.leasesRenewed.Inc()
	c.event("job.heartbeat", l.task, "worker", workerName, "lease", leaseID)
	return true
}

// PushOutcome classifies a result push for the HTTP layer.
type PushOutcome int

const (
	// PushAccepted: the result validated and completed the job.
	PushAccepted PushOutcome = iota
	// PushDuplicate: the lease is gone — the job completed elsewhere or
	// the lease expired. The worker's bytes are discarded; not an error.
	PushDuplicate
	// PushRejected: the payload failed fingerprint revalidation (or was
	// malformed); the job is requeued and the worker's breaker charged.
	PushRejected
)

// Push accepts one worker completion report: a fingerprint-revalidated
// result, or a structured execution error (terminal — deterministic
// simulations fail identically everywhere, so no requeue).
func (c *Coordinator) Push(p *resultPush) PushOutcome {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[p.Worker]
	if w != nil {
		w.lastSeen = c.opts.Clock()
	}
	l, ok := c.leases[p.Lease]
	if !ok || l.task.done || l.task.key != p.Key {
		c.resDuplicate.Inc()
		c.event("result.duplicate", nil, "worker", p.Worker, "lease", p.Lease, "key", shortKey(p.Key))
		return PushDuplicate
	}
	t := l.task
	if p.Error != nil {
		// The worker functioned correctly: it ran the job and reported a
		// structured failure. Terminal for the job, clean for the breaker.
		c.workerSuccessLocked(w)
		c.jobsFailed.Inc()
		err := p.Error.Err()
		c.event("job.remote.error", t, "worker", p.Worker, "error", err.Error())
		c.observePushLocked(w, l)
		c.resolveLeaseLocked(l, "error", err.Error())
		c.completeLocked(t, nil, err)
		return PushAccepted
	}
	if p.Result == nil {
		return c.rejectLocked(w, l, "empty result")
	}
	claimed, perr := strconv.ParseUint(p.Fingerprint, 0, 64)
	if perr != nil {
		return c.rejectLocked(w, l, "unparseable fingerprint")
	}
	if got := p.Result.Fingerprint(); got != claimed {
		return c.rejectLocked(w, l, fmt.Sprintf("fingerprint %#x, claimed %#x", got, claimed))
	}
	c.workerSuccessLocked(w)
	c.resAccepted.Inc()
	c.jobsCompleted.Inc()
	if w != nil {
		w.accepted++
	}
	c.event("result.accept", t, "worker", p.Worker, "lease", p.Lease,
		"fingerprint", p.Fingerprint, "hedges", t.hedges)
	c.observePushLocked(w, l)
	c.resolveLeaseLocked(l, "accepted", "")
	c.completeLocked(t, p.Result, nil)
	return PushAccepted
}

// observePushLocked records the lease-grant→push latency on the
// worker's quantile histogram.
func (c *Coordinator) observePushLocked(w *workerState, l *lease) {
	if w == nil || w.pushUS == nil {
		return
	}
	if d := c.opts.Clock().Sub(l.granted); d > 0 {
		w.pushUS.ObserveDuration(d)
	}
}

// rejectLocked handles a push that failed revalidation: charge the
// worker, drop its lease, requeue the job.
func (c *Coordinator) rejectLocked(w *workerState, l *lease, cause string) PushOutcome {
	t := l.task
	c.resRejected.Inc()
	if w != nil {
		w.rejected++
	}
	c.event("result.reject", t, "worker", l.worker, "lease", l.id, "cause", cause)
	c.workerFailureLocked(w, "rejected result: "+cause)
	c.observePushLocked(w, l)
	c.resolveLeaseLocked(l, "rejected", cause)
	if len(t.leases) == 0 {
		c.requeueLocked(t, "result rejected: "+cause)
	}
	return PushRejected
}

// sweepLoop periodically expires leases and degrades jobs the fleet has
// abandoned.
func (c *Coordinator) sweepLoop() {
	defer c.sweeper.Done()
	tick := time.NewTicker(c.sweepEvery())
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			c.Sweep()
		case <-c.stop:
			return
		}
	}
}

// Sweep runs one expiry-and-degrade scan (the sweeper calls it on a
// timer; tests call it directly with a fake clock).
func (c *Coordinator) Sweep() {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opts.Clock()
	// Deterministic order: scan leases by ID so two equal runs journal
	// equal expiry sequences.
	ids := make([]string, 0, len(c.leases))
	for id := range c.leases {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		l := c.leases[id]
		if l == nil || !now.After(l.expires) {
			continue
		}
		t := l.task
		c.leasesExpired.Inc()
		if w := c.workers[l.worker]; w != nil {
			w.expired++
		}
		c.event("job.lease.expire", t, "worker", l.worker, "lease", id)
		c.workerFailureLocked(c.workers[l.worker], "lease expired")
		c.resolveLeaseLocked(l, "expired", "")
		if len(t.leases) == 0 && !t.queued {
			c.requeueLocked(t, "lease expired on "+l.worker)
		}
	}
	// Degrade scan: a queued job with no active lease degrades once the
	// whole fleet has been silent past DegradeAfter — no grant to any job
	// since the job last saw activity means nobody is pulling.
	fleetIdleSince := c.lastGrant
	for _, t := range c.tasks {
		if t.done || len(t.leases) > 0 {
			continue
		}
		ref := t.lastActivity
		if fleetIdleSince.After(ref) {
			ref = fleetIdleSince
		}
		if now.Sub(ref) >= c.opts.DegradeAfter {
			c.degradeLocked(t, "fleet unreachable or drained")
		}
	}
}

// maxJournalLineBytes bounds one shipped journal line; longer lines are
// rejected (counted, never written), keeping the fleet journal sane.
const maxJournalLineBytes = 1 << 16

// AcceptJournal ingests one batch of worker journal lines into the
// fleet journal: each structurally sane line (a JSON object) gets
// `"worker"` and `"skew_ns"` attributes spliced in before the closing
// brace and is appended verbatim otherwise. A line naming a live lease
// also goes to its task's journal, the submitting request's, with one
// trace.import per lease fed. Returns how many lines were accepted;
// malformed lines count on dist.journal.rejected, and the worker's
// cumulative buffer drops on dist.journal.dropped and its stats row.
func (c *Coordinator) AcceptJournal(b *journalBatch) int {
	workerTag, _ := json.Marshal(b.Worker)
	suffix := []byte(fmt.Sprintf(`,"worker":%s,"skew_ns":%d}`, workerTag, b.SkewNS))
	var lines [][]byte
	var leaseIDs []string
	for _, line := range b.Lines {
		spliced, ok := spliceJournalLine(line, suffix)
		if !ok {
			c.jnlRejected.Inc()
			continue
		}
		var ref struct {
			Lease string `json:"lease"`
		}
		json.Unmarshal(line, &ref) //nolint:errcheck // spliceJournalLine validated it
		lines = append(lines, spliced)
		leaseIDs = append(leaseIDs, ref.Lease)
	}

	c.mu.Lock()
	w := c.workerLocked(b.Worker, "")
	w.skewNS, w.skewSet = b.SkewNS, true
	w.shippedBatches++
	w.shippedLines += int64(len(lines))
	if b.Dropped > w.shipDropped {
		w.shipDropped = b.Dropped
	}
	var totalDropped int64
	for _, ws := range c.workers {
		totalDropped += ws.shipDropped
	}
	spliced := map[*lease]int{}
	for i, line := range lines {
		c.jnl.Raw(line)
		if l := c.leases[leaseIDs[i]]; l != nil && l.task.jnl != nil {
			l.task.jnl.Raw(line)
			spliced[l]++
		}
	}
	for l, n := range spliced {
		c.event("trace.import", l.task, "worker", b.Worker, "lease", l.id, "lines", n)
	}
	c.mu.Unlock()
	c.jnlBatches.Inc()
	c.jnlDropped.Set(totalDropped)
	c.jnlLines.Add(int64(len(lines)))
	return len(lines)
}

// spliceJournalLine validates that line is one JSON object on one line
// and replaces its closing brace with the suffix
// (",\"worker\":...,\"skew_ns\":...}"). A line break between tokens is
// valid JSON but would split the record in the fleet journal, so such a
// line is rejected rather than re-encoded.
func spliceJournalLine(line []byte, suffix []byte) ([]byte, bool) {
	line = bytes.TrimSpace(line)
	if len(line) < 2 || len(line) > maxJournalLineBytes ||
		line[0] != '{' || line[len(line)-1] != '}' ||
		bytes.ContainsAny(line, "\r\n") || !json.Valid(line) {
		return nil, false
	}
	out := make([]byte, 0, len(line)+len(suffix))
	out = append(out, line[:len(line)-1]...)
	if len(bytes.TrimSpace(line[1:len(line)-1])) == 0 {
		// An empty object takes the attributes without the joining comma.
		out = append(out, suffix[1:]...)
	} else {
		out = append(out, suffix...)
	}
	return out, true
}

// Close stops the sweeper, degrades every pending job, so a shutting-
// down coordinator leaves no waiter hanging: they all fall back to local
// execution. It returns once no lease request is parked. Safe to repeat.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	for _, t := range c.tasks {
		if !t.done {
			c.degradeLocked(t, "coordinator closed")
		}
	}
	c.queue = nil
	c.wakeLocked()
	c.mu.Unlock()
	close(c.stop)
	c.sweeper.Wait()
	c.parked.Wait()
}
