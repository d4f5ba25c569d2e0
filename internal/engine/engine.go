// Package engine executes experiment workloads concurrently. Every
// experiment is expressed as a batch of simulation jobs — each pricing,
// in one walk, the specs one pass over a materialized trace can price —
// run on a bounded worker pool with cancellable contexts and per-job
// timing.
//
// Large sweeps are cheap because results are deduplicated and cached by a
// content hash of everything that can influence them (workload spec
// including seed and CPU count, scheme, cost options, block geometry):
// the paper's method — a trace taken once and replayed through every
// scheme — falls out of the cache, so a trace shared by twenty
// experiments is generated once, by whichever caller asks first, and a
// scheme priced by five figures is simulated once.
//
// Every batch is the same flat list of walk jobs whichever executor runs
// it: one sim: job per group of specs one pass over a trace can price. A
// job that will compute locally first gets its trace from the
// single-flight Engine.Trace, whose generation takes one slot of the
// batch's pool, and then takes a slot itself to simulate. Sequential is
// that pool with one slot and Parallel with many; they differ in worker
// count and nothing else, and because simulations are pure functions of
// the reference sequence both produce bit-identical results, which the
// tests assert.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"time"

	"dirsim/internal/faults"
	"dirsim/internal/obs"
	"dirsim/internal/sim"
	"dirsim/internal/trace"
)

// Options configures an Engine. The zero value is ready to use.
type Options struct {
	// Metrics is the registry the engine's lifetime counters live on,
	// shared with whatever else the caller instruments; nil means a
	// private registry (reachable via Engine.Metrics).
	Metrics *obs.Registry
	// Observer receives job lifecycle callbacks. nil (the default)
	// disables them; the only cost left on the hot path is a nil check.
	// Journaling does not go through it: the engine writes its own lines
	// to the journal each submission's context carries (obs.WithJournal).
	Observer Observer
	// JobTimeout bounds each job-body attempt; 0 means no per-job
	// deadline.
	JobTimeout time.Duration
	// Retries is how many additional attempts a job body gets when it
	// fails with a retryable error (one with Retryable() true, or a
	// per-attempt deadline expiry), after retryBackoff doubling per
	// attempt. 0 means fail on the first error.
	Retries int
	// Faults, when non-nil, injects deterministic faults into job bodies,
	// simulation sources, and cache stores, and switches Verify on. nil — the
	// default — costs a nil check per site and nothing more.
	Faults *faults.Injector
	// Verify turns on integrity checking without fault injection: cached
	// results and traces are fingerprinted when stored and revalidated on
	// every hit, and each simulation's reference count is reconciled
	// against the length of the trace it replayed.
	Verify bool

	// Store, when non-nil, is a durable second tier behind the in-memory
	// result cache: computed results are written through to it, and a
	// memory miss consults it before computing, so warm-start runs and
	// concurrent processes sharing one store serve each other's work.
	// Entries it returns are fingerprint-validated by the tier itself; a
	// corrupt entry surfaces as a Corrupt() error, counts as a cache
	// rejection, and is recomputed. Traces never reach it: regenerating
	// one is faster than reading it back.
	Store Tier

	// Remote, when non-nil, is offered every simulation spec that missed
	// all cache tiers before the engine computes it locally: sweeps fan
	// out to a worker fleet, and an individual job — or the whole run —
	// degrades to local execution when the Remote reports
	// ErrRemoteUnavailable. Cached and in-flight work never dispatches
	// remotely. See the Remote interface contract.
	Remote Remote
}

// Tier is the contract of a durable second-tier content-addressed result
// cache (internal/store satisfies it). Keys are the full hex form of the
// engine's content hashes. LoadResult returns ok == false on a clean
// miss; an error whose chain reports Corrupt() true means the entry
// existed, failed integrity revalidation, and has been evicted — the
// engine counts it on engine.cache.rejected and recomputes. StoreResult
// receives the content fingerprint to stamp the entry with (normally the
// result's own fingerprint; fault injection may poison it).
// Implementations must be safe for concurrent use.
type Tier interface {
	HasResult(key string) bool
	LoadResult(key string) (*sim.Result, bool, error)
	StoreResult(key string, r *sim.Result, fingerprint uint64) error
}

// Observer is the engine's one callback interface: one JobScheduled per
// walk job at submission, a JobStarted/JobFinished pair around every job
// that starts (cache hits included, flagged as such). Every method
// receives the context the work ran under, which carries the originating
// request's obs.TraceContext when there is one. kind is always "sim":
// every job is a walk job, and a trace generation is a trace.generate
// span of the journal, not a job. key is always empty: a job computes
// several results, each under its own key, which its spec's sim.run span
// and its store lines carry. Both parameters stay because the frozen
// bench/paper_regen.go implements the interface.
// Implementations must be safe for concurrent use — every job runs on
// its own goroutine, and under Parallel many finish at once.
type Observer interface {
	JobScheduled(ctx context.Context, id, kind, key string)
	JobStarted(ctx context.Context, id, kind, key string)
	JobFinished(ctx context.Context, id, kind, key string, d time.Duration, cacheHit bool, err error)
}

// retryBackoff is the sleep before a job body's first retry; it doubles
// per attempt.
const retryBackoff = 10 * time.Millisecond

// jobKind classifies a job by its ID prefix: every job the engine runs is
// a walk job, kind "sim".
func jobKind(id string) string {
	kind, _, _ := strings.Cut(id, ":")
	return kind
}

// Engine schedules jobs and owns the content-addressed caches. An Engine
// is safe for concurrent use by multiple goroutines; all submissions
// share its caches and its worker bound.
type Engine struct {
	jobTimeout time.Duration
	retries    int
	faults     *faults.Injector // nil disables injection
	verify     bool             // integrity validation (implied by faults)

	results *flightCache // Key → job output (typically *sim.Result)
	traces  *flightCache // Key → *trace.Trace
	tier    Tier         // durable second tier; nil disables it
	remote  Remote       // remote executor for uncached specs; nil disables it

	// wanted holds, per walk key, the specs of planned batches whose walk
	// jobs have not started (runWalk).
	wantMu sync.Mutex
	wanted map[walkKey][]*wantGroup

	reg *obs.Registry // metrics registry the counters below live on
	obs Observer      // nil disables the lifecycle callbacks

	// Lifetime counters, resolved from the registry once at construction
	// so every update is a single atomic add.
	jobsRun         *obs.Counter
	cacheHits       *obs.Counter
	cacheMisses     *obs.Counter
	simsRun         *obs.Counter
	refsSimulated   *obs.Counter
	walks           *obs.Counter
	tracesGenerated *obs.Counter
	jobPanics       *obs.Counter
	jobRetries      *obs.Counter
	jobTimeouts     *obs.Counter
	cacheRejected   *obs.Counter
	integrityFaults *obs.Counter
	simsRemote      *obs.Counter
	remoteDegraded  *obs.Counter
	jobsScheduled   *obs.Counter
	// generateUS and simulateUS are the phases' duration histograms,
	// engine.job.<phase>.us: one observation per trace generation
	// (Engine.Trace) and per walk job.
	generateUS *obs.Histogram
	simulateUS *obs.Histogram
}

// New builds an engine with the given options.
func New(opts Options) *Engine {
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Engine{
		jobTimeout:      opts.JobTimeout,
		retries:         opts.Retries,
		faults:          opts.Faults,
		verify:          opts.Verify || opts.Faults != nil,
		results:         newFlightCache(reg.Gauge("engine.cache.results")),
		traces:          newFlightCache(reg.Gauge("engine.cache.traces")),
		wanted:          make(map[walkKey][]*wantGroup),
		tier:            opts.Store,
		remote:          opts.Remote,
		reg:             reg,
		obs:             opts.Observer,
		jobsRun:         reg.Counter("engine.jobs.run"),
		cacheHits:       reg.Counter("engine.cache.hits"),
		cacheMisses:     reg.Counter("engine.cache.misses"),
		simsRun:         reg.Counter("engine.sims.run"),
		refsSimulated:   reg.Counter("engine.refs.simulated"),
		walks:           reg.Counter("engine.walks.run"),
		tracesGenerated: reg.Counter("engine.traces.generated"),
		jobPanics:       reg.Counter("engine.jobs.panics"),
		jobRetries:      reg.Counter("engine.jobs.retries"),
		jobTimeouts:     reg.Counter("engine.jobs.timeouts"),
		cacheRejected:   reg.Counter("engine.cache.rejected"),
		integrityFaults: reg.Counter("engine.stream.integrity"),
		simsRemote:      reg.Counter("engine.sims.remote"),
		remoteDegraded:  reg.Counter("engine.remote.degraded"),
		jobsScheduled:   reg.Counter("engine.jobs.scheduled"),
		generateUS:      reg.Histogram("engine.job.generate.us", obs.DurationBucketsUS),
		simulateUS:      reg.Histogram("engine.job.simulate.us", obs.DurationBucketsUS),
	}
}

// Stats is a snapshot of the engine's lifetime counters.
type Stats struct {
	// JobsRun counts job-body attempts: a walk job whose members were all
	// cached runs none.
	JobsRun int64
	// CacheHits / CacheMisses count keyed lookups that were satisfied
	// from (or claimed into) the result and trace caches.
	CacheHits   int64
	CacheMisses int64
	// SimsRun counts simulation results computed; RefsSimulated totals
	// their references — the numerator of refs/s. Walks counts the local
	// passes over a trace that computed them: one per result, but one
	// for every family group's results together (engine.walks.run).
	SimsRun       int64
	RefsSimulated int64
	Walks         int64
	// TracesGenerated counts trace generations.
	TracesGenerated int64
	// StreamStalls is always 0: the streamed delivery it counted is gone.
	// The field stays only because the frozen bench/layers.go reads it
	// for engine.stream_stalls; it goes when that metric does.
	StreamStalls int64
	// JobPanics counts job-body panics recovered; JobRetries counts
	// re-attempts after retryable failures; JobTimeouts counts per-job
	// deadline expiries.
	JobPanics   int64
	JobRetries  int64
	JobTimeouts int64
	// CacheRejected counts cached entries that failed integrity
	// revalidation and were evicted for recompute; IntegrityFaults counts
	// simulations whose reference count fell short of the trace they
	// replayed (engine.stream.integrity).
	CacheRejected   int64
	IntegrityFaults int64
	// SimsRemote counts simulations whose results a Remote executor
	// delivered (included in SimsRun); RemoteDegraded counts remote
	// dispatches that fell back to local execution because the Remote
	// reported unavailability.
	SimsRemote     int64
	RemoteDegraded int64
	// CachedResults and CachedTraces are the current cache populations,
	// in flight or fulfilled: the engine.cache.results and
	// engine.cache.traces gauges.
	CachedResults int
	CachedTraces  int
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	return Stats{
		JobsRun:         e.jobsRun.Value(),
		CacheHits:       e.cacheHits.Value(),
		CacheMisses:     e.cacheMisses.Value(),
		SimsRun:         e.simsRun.Value(),
		RefsSimulated:   e.refsSimulated.Value(),
		Walks:           e.walks.Value(),
		TracesGenerated: e.tracesGenerated.Value(),
		JobPanics:       e.jobPanics.Value(),
		JobRetries:      e.jobRetries.Value(),
		JobTimeouts:     e.jobTimeouts.Value(),
		CacheRejected:   e.cacheRejected.Value(),
		IntegrityFaults: e.integrityFaults.Value(),
		SimsRemote:      e.simsRemote.Value(),
		RemoteDegraded:  e.remoteDegraded.Value(),
		CachedResults:   int(e.results.n.Value()),
		CachedTraces:    int(e.traces.n.Value()),
	}
}

// job is one walk job of a batch. Jobs are single-use: the batch helpers
// plan fresh ones per call (cached work is cheap to re-plan).
type job struct {
	// ID names the job in errors and metrics, e.g.
	// "sim:Dir0B+WTI@pops"; its prefix is the job's kind.
	ID string
	// walk holds the specs the job prices, each cached under its own key
	// (runWalk).
	walk *wantGroup

	// out is each of the job's members' result or error once it has run;
	// err is set when every member failed, or when the job never ran (the
	// run ended first).
	out walkOutput
	err error
	// started is when the job began executing (or waiting on a cache
	// flight); cacheHit is set when the output came from a cache.
	started  time.Time
	cacheHit bool
}

// Executor is a batch execution strategy.
type Executor interface {
	// Name identifies the strategy in reports and flags.
	Name() string
	workerCount() int
}

// Sequential runs one local job body at a time — a generation or a
// simulation: the pool with one slot. Which ready job takes the slot next
// is not fixed, so it is the reference for results, not for the order of
// journal lines.
type Sequential struct{}

// Name returns "sequential".
func (Sequential) Name() string     { return "sequential" }
func (Sequential) workerCount() int { return 1 }

// Parallel runs the same jobs as Sequential on a pool of Workers slots:
// at most Workers local job bodies — generations and simulations —
// execute at once. The pool is per batch: concurrent Merge or Results
// calls each get their own. Under either executor a job waiting on a
// trace another caller is generating, or on a Remote, holds no slot, so a
// whole batch reaches the fleet together.
type Parallel struct {
	// Workers is the pool size; 0 means runtime.GOMAXPROCS(0).
	Workers int
}

// Name returns "parallel".
func (Parallel) Name() string { return "parallel" }
func (p Parallel) workerCount() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// execute runs the given walk jobs to completion, tolerating failures: a
// failed job does not cancel its siblings. Each job runs on its own
// goroutine (runJob) and takes a slot of the batch's pool only for its
// local work. execute returns an error only when the context dies;
// per-job outcomes — success or structured failure — are on each job's
// out and err. A nil executor means Sequential.
func (e *Engine) execute(ctx context.Context, exec Executor, jobs ...*job) error {
	if exec == nil {
		exec = Sequential{}
	}
	jnl := obs.JournalFrom(ctx)
	for _, j := range jobs {
		e.jobsScheduled.Inc()
		e.jobEvent(ctx, jnl, "job.scheduled", j)
	}
	ctx = context.WithValue(ctx, poolKey{}, make(chan struct{}, exec.workerCount()))
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.runJob(ctx, j)
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// poolKey keys the batch's pool, a semaphore, in its jobs' context;
// heldKey marks a context whose goroutine holds one of its slots.
type (
	poolKey struct{}
	heldKey struct{}
)

// acquireSlot takes a slot of ctx's batch pool and returns ctx marked as
// holding it, and the slot's release. Outside a batch, or for a caller
// that holds a slot already, it takes none and its release does nothing.
func acquireSlot(ctx context.Context) (context.Context, func()) {
	pool, _ := ctx.Value(poolKey{}).(chan struct{})
	if pool == nil || ctx.Value(heldKey{}) != nil {
		return ctx, func() {}
	}
	pool <- struct{}{}
	return context.WithValue(ctx, heldKey{}, true), func() { <-pool }
}

// jobEvent reports one lifecycle event of j — msg is "job.scheduled",
// "job.start" or "job.finish" — to the Observer and as a line to jnl, the
// journal the job's context carries. job.finish is the job's span line,
// so its ctx is the one the job's span runs under; the other two are
// events inside the enclosing span. A finish also lands in the simulate
// phase's histogram. With neither sink attached nothing is rendered or
// allocated.
func (e *Engine) jobEvent(ctx context.Context, jnl *obs.Journal, msg string, j *job) {
	kind, done := jobKind(j.ID), msg == "job.finish"
	var dur time.Duration
	if done {
		dur = time.Since(j.started)
		e.simulateUS.ObserveDuration(dur)
	}
	if e.obs == nil && jnl == nil {
		return
	}
	switch {
	case e.obs == nil:
	case msg == "job.scheduled":
		e.obs.JobScheduled(ctx, j.ID, kind, "")
	case !done:
		e.obs.JobStarted(ctx, j.ID, kind, "")
	default:
		e.obs.JobFinished(ctx, j.ID, kind, "", dur, j.cacheHit, j.err)
	}
	if jnl == nil {
		return
	}
	attrs := []any{"job", j.ID, "kind", kind}
	if !done {
		jnl.Event(msg, obs.ParentAttrs(ctx, attrs)...)
		return
	}
	obs.EndSpan(ctx, msg, j.started, j.err, append(attrs, "name", j.ID, "cache_hit", j.cacheHit)...)
}

// reject counts a cached entry that failed integrity revalidation and
// journals it as cache.reject.
func (e *Engine) reject(ctx context.Context, k Key) {
	e.cacheRejected.Add(1)
	if jnl := obs.JournalFrom(ctx); jnl != nil {
		jnl.Event("cache.reject", obs.ParentAttrs(ctx, []any{"key", k.String()})...)
	}
}

// lookup returns k's value from c. The first caller for k owns the
// computation: it counts a cache miss and runs fill, which returns the
// value, its integrity stamp and its error. Concurrent callers wait for
// that flight, and one that receives a value counts a cache hit and
// reports hit; one whose flight failed gets the error and is no hit, or,
// when the owner was cancelled and the waiter was not, starts over. In
// verification mode a waiter revalidates the value against its stamp; a
// mismatch is rejected and evicted, and the lookup starts over, so a
// corrupted cached value is recomputed rather than served.
func (e *Engine) lookup(ctx context.Context, c *flightCache, k Key,
	fill func() (val any, sum uint64, stamped bool, err error)) (val any, hit bool, err error) {
	for {
		f, owner := c.claim(k)
		if owner {
			e.cacheMisses.Add(1)
			val, sum, stamped, err := fill()
			c.fulfill(k, f, val, err, sum, stamped)
			return val, false, err
		}
		val, err := f.wait(ctx)
		if err != nil {
			if ctx.Err() == nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
				continue
			}
			return nil, false, err
		}
		if e.verify && f.stamped {
			if sum, ok := fingerprintOf(val); ok && sum != f.sum {
				e.reject(ctx, k)
				c.evict(k, f)
				continue
			}
		}
		e.cacheHits.Add(1)
		return val, true, nil
	}
}

// runJob runs one walk job. A job that will compute locally — the
// engine has no Remote, and not every member is in memory, in flight or
// in the durable tier — first gets its trace from Engine.Trace, holding
// no slot while another caller generates it, and then takes a slot of the
// batch's pool; a job offering its members to a Remote holds none (see
// compute). Only then does it start, as a span, and take its members
// (runWalk). A trace that cannot be had fails every member with a
// *JobError wrapping the cause.
func (e *Engine) runJob(ctx context.Context, j *job) {
	var t *trace.Trace
	var terr error
	if e.remote == nil {
		if !e.cached(j.walk.keys) {
			t, terr = e.Trace(ctx, j.walk.specs[0].Trace)
		}
		var release func()
		ctx, release = acquireSlot(ctx)
		defer release()
	}
	if err := ctx.Err(); err != nil {
		j.err = err
		return
	}
	j.started = time.Now()
	jnl := obs.JournalFrom(ctx)
	e.jobEvent(ctx, jnl, "job.start", j)
	// The job is a span: its attempts, simulations and store traffic nest
	// under it, and job.finish is its line. The span parents under
	// whatever span the context already carried — for service work, the
	// originating request's span.
	ctx, _ = obs.StartSpan(ctx)
	defer e.jobEvent(ctx, jnl, "job.finish", j)

	if terr != nil {
		j.err = &JobError{ID: j.ID, Kind: jobKind(j.ID),
			Err: fmt.Errorf("trace %s: %w", j.walk.specs[0].Trace.Name, terr)}
		return
	}
	j.out = e.runWalk(ctx, j, t)
	if !slices.Contains(j.out.errs, nil) { // the job fails when each of its members did
		j.err = j.out.errs[0]
	}
}

// runBody executes run, j's body, with panic isolation, a per-attempt
// deadline, and bounded retry-with-backoff for retryable failures.
func (e *Engine) runBody(ctx context.Context, j *job, run func(context.Context) error) error {
	backoff := retryBackoff
	for attempt := 0; ; attempt++ {
		err := e.attempt(ctx, j, run, attempt)
		if err == nil {
			return nil
		}
		je := jobError(j, attempt, err)
		if attempt >= e.retries || ctx.Err() != nil || !je.Retryable() {
			return je
		}
		e.jobRetries.Add(1)
		obs.Instant(ctx, "job.retry", je.Err, "job", j.ID,
			"attempt", attempt, "backoff_us", backoff.Microseconds())
		t := time.NewTimer(backoff)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return je
		}
		backoff *= 2
	}
}

// jobError records err, the failure of j's attempt'th attempt, as a
// *JobError.
func jobError(j *job, attempt int, err error) *JobError {
	je := &JobError{ID: j.ID, Kind: jobKind(j.ID), Attempts: attempt + 1, Err: err}
	var pe *panicError
	var te *timeoutError
	switch {
	case errors.As(err, &pe):
		je.Panicked, je.Stack, je.Err = true, pe.stack, pe
	case errors.As(err, &te):
		je.Timeout, je.Err = true, te.cause
	}
	return je
}

// recovered turns r, a panic recovered from j's body, into a *panicError
// with the stack, counting it and journaling it as job.panic.
func (e *Engine) recovered(ctx context.Context, j *job, r any) error {
	stack := debug.Stack()
	e.jobPanics.Add(1)
	if jnl := obs.JournalFrom(ctx); jnl != nil {
		jnl.Event("job.panic", obs.ParentAttrs(ctx, []any{"job", j.ID, "stack", string(stack)})...)
	}
	return &panicError{val: r, stack: stack}
}

// panicError carries a recovered panic value and the stack captured at
// the recovery site.
type panicError struct {
	val   any
	stack []byte
}

func (p *panicError) Error() string { return fmt.Sprintf("panic: %v", p.val) }

// timeoutError marks an attempt that died to its own per-job deadline
// (as opposed to the run's context).
type timeoutError struct{ cause error }

func (t *timeoutError) Error() string { return t.cause.Error() }
func (t *timeoutError) Unwrap() error { return t.cause }

// attempt runs j's body once: under its per-attempt deadline and with
// panics recovered into a *panicError rather than unwinding through the
// job's goroutine. Injected faults are drawn by the body, per member
// (memberFault).
func (e *Engine) attempt(ctx context.Context, j *job, run func(context.Context) error, attempt int) (err error) {
	attemptCtx := ctx
	var cancel context.CancelFunc
	if e.jobTimeout > 0 {
		attemptCtx, cancel = context.WithTimeout(ctx, e.jobTimeout)
		defer cancel()
	}
	// A traced attempt is a span, so simulations nest under the attempt
	// that ran them. Its line is deferred before the recover below, so it
	// is written after it (LIFO) and records the error the recovery
	// produced.
	var traced bool
	if attemptCtx, traced = obs.StartSpan(attemptCtx); traced {
		start := time.Now()
		defer func() {
			obs.EndSpan(attemptCtx, "job.attempt", start, err,
				"name", fmt.Sprintf("attempt:%d", attempt), "job", j.ID, "attempt", attempt)
		}()
	}
	defer func() {
		if r := recover(); r != nil {
			err = e.recovered(ctx, j, r)
		}
	}()
	e.jobsRun.Add(1)
	err = run(attemptCtx)
	// A deadline expiry of the attempt's own context — while the overall
	// run is still alive — is a per-job timeout, a retryable condition
	// distinct from the run being cancelled.
	if err != nil && attemptCtx != ctx && attemptCtx.Err() != nil && ctx.Err() == nil &&
		errors.Is(err, context.DeadlineExceeded) {
		e.jobTimeouts.Add(1)
		return &timeoutError{cause: err}
	}
	return err
}

// stampFor fingerprints values the engine knows how to validate —
// simulation results and traces — for cache-integrity stamps. In fault
// mode the stamp may be deliberately poisoned, modelling an entry
// corrupted between store and hit.
func (e *Engine) stampFor(key string, v any) (uint64, bool) {
	if !e.verify {
		return 0, false
	}
	sum, ok := fingerprintOf(v)
	if !ok {
		return 0, false
	}
	if e.faults.PoisonStamp(key) {
		sum = ^sum
	}
	return sum, true
}

// tierLoad consults the durable second tier for the result under k. A
// validated hit returns the result and its fingerprint (which becomes the
// in-memory stamp, so later memory hits revalidate against the same sum).
// A corrupt entry has already been evicted by the store; the engine counts
// it like any other integrity rejection and recomputes. The lookup is a
// span, journaled as store.load, so store traffic shows up on the
// request's timeline.
func (e *Engine) tierLoad(ctx context.Context, k Key) (*sim.Result, uint64, bool) {
	if e.tier == nil {
		return nil, 0, false
	}
	start := time.Now()
	r, ok, err := e.tier.LoadResult(k.hex())
	hit := err == nil && ok && r != nil
	sctx, _ := obs.StartSpan(ctx)
	obs.EndSpan(sctx, "store.load", start, nil, "kind", "result", "key", k.String(), "hit", hit)
	if isCorrupt(err) {
		e.reject(ctx, k)
	}
	if !hit {
		return nil, 0, false
	}
	return r, r.Fingerprint(), true
}

// tierStore writes a freshly computed result through to the durable tier,
// best-effort: the store accounts its own write failures and a broken disk
// must not fail the work that just succeeded. In fault mode the persisted
// stamp may be deliberately poisoned — the same mechanism stampFor uses —
// so injected corruption exercises the store's load-time revalidation end
// to end.
func (e *Engine) tierStore(ctx context.Context, k Key, r *sim.Result) {
	if e.tier == nil || r == nil {
		return
	}
	sum := r.Fingerprint()
	if e.faults.PoisonStamp(k.String()) {
		sum = ^sum
	}
	start := time.Now()
	e.tier.StoreResult(k.hex(), r, sum) //nolint:errcheck // the store accounts its own write failures
	sctx, _ := obs.StartSpan(ctx)
	obs.EndSpan(sctx, "store.store", start, nil, "kind", "result", "key", k.String())
}

// isCorrupt reports whether any error in the chain declares itself a
// failed integrity revalidation via a Corrupt() bool trait, mirroring the
// Retryable() convention.
func isCorrupt(err error) bool {
	var c interface{ Corrupt() bool }
	return errors.As(err, &c) && c.Corrupt()
}

// fingerprintOf computes the content fingerprint of cacheable value
// types; ok is false for types without one.
func fingerprintOf(v any) (uint64, bool) {
	switch t := v.(type) {
	case *sim.Result:
		if t != nil {
			return t.Fingerprint(), true
		}
	case *trace.Trace:
		if t != nil {
			return t.Fingerprint(), true
		}
	}
	return 0, false
}
