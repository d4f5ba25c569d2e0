package dist

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"dirsim/internal/engine"
	"dirsim/internal/sim"
	"dirsim/internal/workload"
)

// fakeClock is a hand-advanced clock for driving lease TTLs, hedge
// delays, and breaker cooldowns without real waiting.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func testSpec(i int) engine.SimSpec {
	cfgs := workload.StandardConfigs(4, 2_000)
	return engine.SimSpec{Trace: cfgs[i%len(cfgs)], Scheme: []string{"Dir0B", "Dir1NB"}[i/len(cfgs)%2]}
}

// localResult computes spec's ground-truth result on a private engine.
func localResult(t *testing.T, spec engine.SimSpec) *sim.Result {
	t.Helper()
	rs, err := engine.New(engine.Options{}).Results(context.Background(), engine.Sequential{}, []engine.SimSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	return rs[0]
}

func goodPush(worker string, job *JobSpec, res *sim.Result) *resultPush {
	return &resultPush{
		Worker:      worker,
		Lease:       job.Lease,
		Key:         job.Key,
		Fingerprint: "0x" + strconv.FormatUint(res.Fingerprint(), 16),
		Result:      res,
	}
}

// outcome is a SimulateRemote completion delivered on a channel.
type outcome struct {
	res *sim.Result
	err error
}

func submit(c *Coordinator, spec engine.SimSpec) chan outcome {
	ch := make(chan outcome, 1)
	go func() {
		res, err := simulateOne(context.Background(), c, spec)
		ch <- outcome{res, err}
	}()
	return ch
}

// simulateOne offers the coordinator spec alone, as the engine offers a
// keyed spec.
func simulateOne(ctx context.Context, c *Coordinator, spec engine.SimSpec) (*sim.Result, error) {
	rs, errs := c.SimulateRemote(ctx, []engine.SimSpec{spec})
	return rs[0], errs[0]
}

// waitSubmitted blocks until n jobs have been queued (submission runs on
// the waiters' goroutines).
func waitSubmitted(t *testing.T, c *Coordinator, n int64) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d jobs submitted", n), func() bool { return c.Stats().JobsSubmitted >= n })
}

// waitJoined blocks until n SimulateRemote calls wait on spec's task.
func waitJoined(t *testing.T, c *Coordinator, spec engine.SimSpec, n int) {
	t.Helper()
	key := engine.KeyHex(spec.Key())
	waitFor(t, fmt.Sprintf("%d waiters on %s", n, shortKey(key)), func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		tk := c.tasks[key]
		return tk != nil && tk.waiters >= n
	})
}

// waitFor polls cond until it holds, failing the test after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// tryLease asks for a job on worker's behalf without parking.
func tryLease(c *Coordinator, worker string) (job *JobSpec, retryAfter time.Duration) {
	jobs, retryAfter, _ := c.leaseWait(context.Background(), worker, "", 0)
	if len(jobs) > 0 {
		job = jobs[0]
	}
	return job, retryAfter
}

func mustLease(t *testing.T, c *Coordinator, worker string) *JobSpec {
	t.Helper()
	job, retryAfter := tryLease(c, worker)
	if retryAfter != 0 || job == nil {
		t.Fatalf("lease(%s) = %v retryAfter=%v, want a job", worker, job, retryAfter)
	}
	return job
}

func checkInvariant(t *testing.T, c *Coordinator) {
	t.Helper()
	st := c.Stats()
	if st.JobsSubmitted != st.JobsCompleted+st.JobsDegraded+st.JobsFailed {
		t.Errorf("accounting broken: submitted=%d != completed=%d + degraded=%d + failed=%d",
			st.JobsSubmitted, st.JobsCompleted, st.JobsDegraded, st.JobsFailed)
	}
}

func TestCoordinatorLeaseAndComplete(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(Options{Clock: clk.Now})
	defer c.Close()

	s0, s1 := testSpec(0), testSpec(1)
	r0, r1 := localResult(t, s0), localResult(t, s1)
	ch0 := submit(c, s0)
	waitSubmitted(t, c, 1)
	ch1 := submit(c, s1)
	waitSubmitted(t, c, 2)

	// FIFO: the first lease is the first submission.
	j0 := mustLease(t, c, "w1")
	j1 := mustLease(t, c, "w2")
	if j0.Key != engine.KeyHex(s0.Key()) || j1.Key != engine.KeyHex(s1.Key()) {
		t.Fatalf("leases out of FIFO order: %s, %s", shortKey(j0.Key), shortKey(j1.Key))
	}
	if job, retryAfter := tryLease(c, "w3"); job != nil || retryAfter != 0 {
		t.Fatalf("empty queue leased job=%v retryAfter=%v", job, retryAfter)
	}

	if got := c.Push(goodPush("w1", j0, r0)); got != PushAccepted {
		t.Fatalf("push j0 = %v, want accepted", got)
	}
	if got := c.Push(goodPush("w2", j1, r1)); got != PushAccepted {
		t.Fatalf("push j1 = %v, want accepted", got)
	}
	o0, o1 := <-ch0, <-ch1
	if o0.err != nil || o0.res.Fingerprint() != r0.Fingerprint() {
		t.Errorf("waiter 0: err=%v", o0.err)
	}
	if o1.err != nil || o1.res.Fingerprint() != r1.Fingerprint() {
		t.Errorf("waiter 1: err=%v", o1.err)
	}

	// A late replay of an already-completed lease is a discarded duplicate.
	if got := c.Push(goodPush("w1", j0, r0)); got != PushDuplicate {
		t.Errorf("replayed push = %v, want duplicate", got)
	}
	st := c.Stats()
	if st.JobsCompleted != 2 || st.ResultsAccepted != 2 || st.ResultsDuplicate != 1 {
		t.Errorf("stats = %+v", st)
	}
	checkInvariant(t, c)
}

func TestCoordinatorDedupsConcurrentSubmissions(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(Options{Clock: clk.Now})
	defer c.Close()

	spec := testSpec(0)
	res := localResult(t, spec)
	ch0 := submit(c, spec)
	waitJoined(t, c, spec, 1)
	ch1 := submit(c, spec) // same content key: joins the existing task
	waitJoined(t, c, spec, 2)

	job := mustLease(t, c, "w1")
	c.Push(goodPush("w1", job, res))
	o0, o1 := <-ch0, <-ch1
	if o0.err != nil || o1.err != nil {
		t.Fatalf("waiters errored: %v %v", o0.err, o1.err)
	}
	if st := c.Stats(); st.JobsSubmitted != 1 || st.JobsCompleted != 1 {
		t.Errorf("dedup failed: %+v", st)
	}
}

func TestCoordinatorHeartbeatAndExpiry(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(Options{LeaseTTL: 10 * time.Second, Clock: clk.Now})
	defer c.Close()

	spec := testSpec(0)
	res := localResult(t, spec)
	ch := submit(c, spec)
	waitSubmitted(t, c, 1)
	job := mustLease(t, c, "w1")

	// Heartbeats inside the TTL keep the lease alive across many TTLs.
	for i := 0; i < 4; i++ {
		clk.Advance(8 * time.Second)
		if !c.Heartbeat("w1", job.Lease, nil) {
			t.Fatalf("heartbeat %d refused", i)
		}
		c.Sweep()
	}
	if st := c.Stats(); st.LeasesExpired != 0 || st.LeasesRenewed != 4 {
		t.Fatalf("renewed lease expired: %+v", st)
	}

	// The wrong worker cannot renew someone else's lease.
	if c.Heartbeat("w2", job.Lease, nil) {
		t.Error("foreign heartbeat accepted")
	}

	// Silence past the TTL expires the lease and requeues the job.
	clk.Advance(11 * time.Second)
	c.Sweep()
	if st := c.Stats(); st.LeasesExpired != 1 || st.JobsRequeued != 1 {
		t.Fatalf("expiry not processed: %+v", st)
	}
	if c.Heartbeat("w1", job.Lease, nil) {
		t.Error("expired lease still heartbeats")
	}

	// Another worker picks the job up and completes it.
	job2 := mustLease(t, c, "w2")
	if job2.Key != job.Key || job2.Lease == job.Lease {
		t.Fatalf("requeued job not re-leased: %+v", job2)
	}
	c.Push(goodPush("w2", job2, res))
	if o := <-ch; o.err != nil {
		t.Fatalf("waiter err = %v", o.err)
	}
	// The crashed worker's stale push is a duplicate, not an error.
	if got := c.Push(goodPush("w1", job, res)); got != PushDuplicate {
		t.Errorf("stale push = %v, want duplicate", got)
	}
	checkInvariant(t, c)
}

func TestCoordinatorDegradesAfterMaxAttempts(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(Options{LeaseTTL: 10 * time.Second, Clock: clk.Now})
	defer c.Close()

	ch := submit(c, testSpec(0))
	waitSubmitted(t, c, 1)
	for attempt := 0; attempt < maxAttempts; attempt++ {
		mustLease(t, c, fmt.Sprintf("w%d", attempt))
		clk.Advance(11 * time.Second)
		c.Sweep()
	}
	o := <-ch
	if !errors.Is(o.err, engine.ErrRemoteUnavailable) {
		t.Fatalf("err = %v, want wrapped ErrRemoteUnavailable", o.err)
	}
	if st := c.Stats(); st.JobsDegraded != 1 || st.LeasesExpired != maxAttempts {
		t.Errorf("stats = %+v", st)
	}
	checkInvariant(t, c)
}

func TestCoordinatorHedgesStragglers(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(Options{
		LeaseTTL:   time.Minute, // heartbeats not needed in this test
		HedgeAfter: 5 * time.Second,
		Clock:      clk.Now,
	})
	defer c.Close()

	spec := testSpec(0)
	res := localResult(t, spec)
	ch := submit(c, spec)
	waitSubmitted(t, c, 1)
	j1 := mustLease(t, c, "w1")

	// Too early to hedge, and never against the straggler itself.
	if job, _ := tryLease(c, "w2"); job != nil {
		t.Fatal("hedged before HedgeAfter")
	}
	clk.Advance(6 * time.Second)
	if job, _ := tryLease(c, "w1"); job != nil {
		t.Fatal("hedged a worker onto its own job")
	}
	j2 := mustLease(t, c, "w2")
	if j2.Key != j1.Key || j2.Lease == j1.Lease {
		t.Fatalf("hedge lease wrong: %+v vs %+v", j2, j1)
	}
	// maxLeases (2) caps further hedging.
	if job, _ := tryLease(c, "w3"); job != nil {
		t.Fatal("hedged past maxLeases")
	}

	// First valid push wins; the straggler's later push is discarded.
	if got := c.Push(goodPush("w2", j2, res)); got != PushAccepted {
		t.Fatalf("hedge push = %v", got)
	}
	if got := c.Push(goodPush("w1", j1, res)); got != PushDuplicate {
		t.Fatalf("straggler push = %v, want duplicate", got)
	}
	if o := <-ch; o.err != nil || o.res.Fingerprint() != res.Fingerprint() {
		t.Fatalf("waiter: %v", o.err)
	}
	st := c.Stats()
	if st.JobsHedged != 1 || st.ResultsDuplicate != 1 || st.JobsCompleted != 1 {
		t.Errorf("stats = %+v", st)
	}
	checkInvariant(t, c)
}

// submitAll submits testSpec(0..n-1), in order, and returns their
// waiters and ground-truth results keyed by job key.
func submitAll(t *testing.T, c *Coordinator, n int) ([]chan outcome, map[string]*sim.Result) {
	t.Helper()
	var chs []chan outcome
	want := make(map[string]*sim.Result)
	for i := 0; i < n; i++ {
		spec := testSpec(i)
		want[engine.KeyHex(spec.Key())] = localResult(t, spec)
		chs = append(chs, submit(c, spec))
		waitSubmitted(t, c, int64(i+1))
	}
	return chs, want
}

func TestCoordinatorRejectsInvalidResults(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(Options{Clock: clk.Now})
	defer c.Close()

	// Each bad push lands on a job of its own, one failure per job and
	// per worker, so neither a job's attempts nor a breaker runs out.
	chs, want := submitAll(t, c, 3)
	job0, job1, job2 := mustLease(t, c, "w1"), mustLease(t, c, "w2"), mustLease(t, c, "w3")

	// A result whose recomputed fingerprint mismatches the claim — the
	// bytes were corrupted in flight or the worker lied — is rejected.
	bad := goodPush("w1", job0, want[job0.Key])
	bad.Fingerprint = "0xdeadbeef"
	if got := c.Push(bad); got != PushRejected {
		t.Fatalf("mismatched fingerprint push = %v, want rejected", got)
	}

	// In-flight corruption: the worker stamped its result honestly, the
	// bytes changed en route, so the recomputed fingerprint disagrees
	// with the claim.
	mutated := *want[job1.Key]
	mutated.Counts.Total++
	corrupt := goodPush("w2", job1, &mutated)
	corrupt.Fingerprint = "0x" + strconv.FormatUint(want[job1.Key].Fingerprint(), 16)
	if got := c.Push(corrupt); got != PushRejected {
		t.Fatalf("corrupt result push = %v, want rejected", got)
	}

	// An empty result is malformed.
	if got := c.Push(&resultPush{Worker: "w3", Lease: job2.Lease, Key: job2.Key}); got != PushRejected {
		t.Fatalf("empty push = %v, want rejected", got)
	}

	// Every job survives its rejection and completes on a clean push.
	for range chs {
		job := mustLease(t, c, "w4")
		if got := c.Push(goodPush("w4", job, want[job.Key])); got != PushAccepted {
			t.Fatalf("clean push = %v", got)
		}
	}
	for _, ch := range chs {
		if o := <-ch; o.err != nil {
			t.Fatal(o.err)
		}
	}
	st := c.Stats()
	if st.ResultsRejected != 3 || st.JobsRequeued != 3 || st.JobsCompleted != 3 {
		t.Errorf("stats = %+v", st)
	}
	checkInvariant(t, c)
}

// TestCoordinatorPushNamesItsTask: a push under a live lease that names
// another task's key completes neither task, even when its result is
// genuine and its fingerprint matches: the leased task stays pending
// under its lease, and the named one stays queued and unleased. Each
// then completes with its own result.
func TestCoordinatorPushNamesItsTask(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(Options{Clock: clk.Now})
	defer c.Close()

	chs, want := submitAll(t, c, 2)
	a := mustLease(t, c, "w1")
	var bKey string
	for k := range want {
		if k != a.Key {
			bKey = k
		}
	}
	wrong := goodPush("w1", a, want[bKey])
	wrong.Key = bKey
	if got := c.Push(wrong); got != PushDuplicate {
		t.Fatalf("push under A's lease naming B's key = %v, want duplicate", got)
	}
	c.mu.Lock()
	ta, tb := c.tasks[a.Key], c.tasks[bKey]
	aPending := !ta.done && ta.leases[a.Lease] != nil
	bUntouched := !tb.done && tb.queued && len(tb.leases) == 0
	c.mu.Unlock()
	if !aPending || !bUntouched {
		t.Fatalf("A pending under its lease: %v, B queued and unleased: %v", aPending, bUntouched)
	}
	if st := c.Stats(); st.JobsCompleted != 0 {
		t.Fatalf("a misdirected push completed %d jobs", st.JobsCompleted)
	}

	if got := c.Push(goodPush("w1", a, want[a.Key])); got != PushAccepted {
		t.Fatalf("A's own push = %v", got)
	}
	b := mustLease(t, c, "w2")
	if b.Key != bKey {
		t.Fatalf("second lease is %s, want B %s", b.Key, bKey)
	}
	if got := c.Push(goodPush("w2", b, want[bKey])); got != PushAccepted {
		t.Fatalf("B's own push = %v", got)
	}
	for i, ch := range chs {
		o := <-ch
		if o.err != nil {
			t.Fatal(o.err)
		}
		if k := engine.KeyHex(testSpec(i).Key()); o.res.Fingerprint() != want[k].Fingerprint() {
			t.Errorf("task %s completed with another task's result", shortKey(k))
		}
	}
	checkInvariant(t, c)
}

func TestCoordinatorBreaker(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(Options{Clock: clk.Now})
	defer c.Close()

	// breakerThreshold consecutive rejections trip w1's breaker. Each
	// lands on a job of its own, so none of them runs out of attempts.
	chs, want := submitAll(t, c, breakerThreshold)
	badPush := func(job *JobSpec) PushOutcome {
		p := goodPush("w1", job, want[job.Key])
		p.Fingerprint = "0x1"
		return c.Push(p)
	}
	var jobs []*JobSpec
	for range chs {
		jobs = append(jobs, mustLease(t, c, "w1"))
	}
	for i, job := range jobs {
		if got := badPush(job); got != PushRejected {
			t.Fatalf("push %d = %v", i, got)
		}
	}
	if _, retryAfter := tryLease(c, "w1"); retryAfter <= 0 {
		t.Fatalf("open breaker: retryAfter=%v, want positive wait", retryAfter)
	}
	// Other workers are unaffected while w1 is broken.
	for range chs {
		job := mustLease(t, c, "w2")
		c.Push(goodPush("w2", job, want[job.Key]))
	}
	for _, ch := range chs {
		if o := <-ch; o.err != nil {
			t.Fatal(o.err)
		}
	}

	// After the cooldown — 3·LeaseTTL/2, 15s at the default TTL — w1
	// gets exactly one half-open probe; a second pull while the probe is
	// in flight is held off.
	spec := testSpec(breakerThreshold)
	ch2 := submit(c, spec)
	waitSubmitted(t, c, breakerThreshold+1)
	clk.Advance(14 * time.Second)
	if _, retryAfter := tryLease(c, "w1"); retryAfter <= 0 {
		t.Fatal("breaker closed before its cooldown")
	}
	clk.Advance(2 * time.Second)
	job := mustLease(t, c, "w1")
	if _, hold := tryLease(c, "w1"); hold <= 0 {
		t.Fatal("second pull during half-open probe not held")
	}
	// The probe failing reopens the breaker immediately — no threshold.
	res1 := localResult(t, spec)
	want[job.Key] = res1
	if got := badPush(job); got != PushRejected {
		t.Fatalf("probe push = %v", got)
	}
	if _, retryAfter := tryLease(c, "w1"); retryAfter <= 0 {
		t.Fatal("failed probe did not reopen the breaker")
	}

	// A successful probe closes it for good.
	clk.Advance(16 * time.Second)
	job = mustLease(t, c, "w1")
	if got := c.Push(goodPush("w1", job, res1)); got != PushAccepted {
		t.Fatalf("closing push = %v", got)
	}
	if o := <-ch2; o.err != nil {
		t.Fatal(o.err)
	}
	if st := c.Stats(); st.WorkersBroken != 2 {
		t.Errorf("WorkersBroken = %d, want 2", st.WorkersBroken)
	}
	checkInvariant(t, c)
}

// TestCoordinatorRemoteErrorIsTerminal: a structured execution failure
// pushed by a worker surfaces at the waiter as the same errors.As
// matchable chain — no requeue, no degrade, the worker's stack intact.
// This is the wire half of the job-panic propagation contract.
func TestCoordinatorRemoteErrorIsTerminal(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(Options{Clock: clk.Now})
	defer c.Close()

	ch := submit(c, testSpec(0))
	waitSubmitted(t, c, 1)
	job := mustLease(t, c, "w1")

	raised := &engine.JobError{
		ID: "sim:" + testSpec(0).Scheme, Kind: "sim", Attempts: 1, Panicked: true,
		Stack: []byte("goroutine 9 [running]:\nworker stack"), Err: errors.New("panic: boom"),
	}
	wireErr := EncodeError(fmt.Errorf("simulate: %w", raised))
	if got := c.Push(&resultPush{Worker: "w1", Lease: job.Lease, Key: job.Key, Error: wireErr}); got != PushAccepted {
		t.Fatalf("error push = %v, want accepted", got)
	}
	o := <-ch
	var je *engine.JobError
	if !errors.As(o.err, &je) {
		t.Fatalf("remote failure lost structure: %v", o.err)
	}
	if diff := sameJobLayers(raised, o.err); diff != "" {
		t.Errorf("job fields lost: %s", diff)
	}
	if errors.Is(o.err, engine.ErrRemoteUnavailable) {
		t.Error("execution error classified as unavailability")
	}
	st := c.Stats()
	if st.JobsFailed != 1 || st.JobsRequeued != 0 || st.JobsDegraded != 0 {
		t.Errorf("stats = %+v", st)
	}
	checkInvariant(t, c)
}

func TestCoordinatorDegradesWhenFleetSilent(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(Options{DegradeAfter: 20 * time.Second, Clock: clk.Now})
	defer c.Close()

	ch := submit(c, testSpec(0))
	waitSubmitted(t, c, 1)
	clk.Advance(19 * time.Second)
	c.Sweep()
	select {
	case o := <-ch:
		t.Fatalf("degraded early: %v", o.err)
	default:
	}
	clk.Advance(2 * time.Second)
	c.Sweep()
	o := <-ch
	if !errors.Is(o.err, engine.ErrRemoteUnavailable) {
		t.Fatalf("err = %v, want ErrRemoteUnavailable", o.err)
	}
	checkInvariant(t, c)
}

func TestCoordinatorCloseDegradesPending(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(Options{Clock: clk.Now})
	ch := submit(c, testSpec(0))
	waitSubmitted(t, c, 1)
	c.Close()
	if o := <-ch; !errors.Is(o.err, engine.ErrRemoteUnavailable) {
		t.Fatalf("err = %v, want ErrRemoteUnavailable", o.err)
	}
	// Submissions after close degrade immediately.
	if _, err := simulateOne(context.Background(), c, testSpec(1)); !errors.Is(err, engine.ErrRemoteUnavailable) {
		t.Fatalf("post-close err = %v", err)
	}
	checkInvariant(t, c)
}
