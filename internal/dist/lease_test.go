package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dirsim/internal/engine"
	"dirsim/internal/faults"
	"dirsim/internal/obs"
	"dirsim/internal/obs/httpmon"
	"dirsim/internal/workload"
)

// The lease-path tests are event-driven: nothing here sleeps. A parked
// request announces itself through the coordinator's newTimer seam, a
// queued task through the journal, and everything else is a channel.

// parkSignal replaces c.newTimer with one that reports every park (and
// the hold it was armed with) on the returned channel. The timer it hands
// back runs for fire, so a test that must be released by something other
// than the hold passes time.Hour.
func parkSignal(c *Coordinator, fire time.Duration) <-chan time.Duration {
	ch := make(chan time.Duration, 64) // never blocks a handler: far more than any test parks
	c.newTimer = func(hold time.Duration) *time.Timer {
		ch <- hold
		return time.NewTimer(fire)
	}
	return ch
}

// journalSignal is a journal sink that forwards every line whose msg is
// one of the watched events; lines arrive under the coordinator's lock,
// so delivery must not block.
type journalSignal struct {
	watch []string
	ch    chan map[string]any
}

func newJournalSignal(watch ...string) *journalSignal {
	return &journalSignal{watch: watch, ch: make(chan map[string]any, 256)} // sized past any test's event count
}

func (j *journalSignal) Write(p []byte) (int, error) {
	for _, name := range j.watch {
		if bytes.Contains(p, []byte(`"msg":"`+name+`"`)) {
			var line map[string]any
			if json.Unmarshal(p, &line) == nil {
				j.ch <- line
			}
		}
	}
	return len(p), nil
}

// next returns the next watched event, failing the test if none arrives.
func (j *journalSignal) next(t *testing.T) map[string]any {
	t.Helper()
	select {
	case line := <-j.ch:
		return line
	case <-time.After(10 * time.Second):
		t.Fatal("no journal event arrived")
		return nil
	}
}

// traceSpecs returns schemes × traces specs over distinct workloads:
// spec i*len(schemes)+j is scheme j over trace i.
func traceSpecs(traces int, schemes ...string) []engine.SimSpec {
	base := workload.StandardConfigs(4, 2_000)
	var specs []engine.SimSpec
	for i := 0; i < traces; i++ {
		cfg := base[i%len(base)]
		cfg.Seed += uint64(i / len(base))
		for _, s := range schemes {
			specs = append(specs, engine.SimSpec{Trace: cfg, Scheme: s})
		}
	}
	return specs
}

// submitQueued submits spec and returns once the coordinator has queued
// it, so successive calls fix the queue's order.
func submitQueued(t *testing.T, c *Coordinator, jnl *journalSignal, spec engine.SimSpec) chan outcome {
	t.Helper()
	ch := submit(c, spec)
	for jnl.next(t)["msg"] != "job.queue" {
	}
	return ch
}

// postLease runs the lease handler on body, with no connection to lose.
func postLease(c *Coordinator, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/api/v1/dist/lease", strings.NewReader(body))
	rec := httptest.NewRecorder()
	c.handleLease(rec, req)
	return rec
}

// TestParkedLeaseGrantedOnEnqueue: an idle worker's lease request is held
// by the coordinator and granted the moment a job is queued — the hold
// timer never fires here — so the worker never sleeps with work waiting.
func TestParkedLeaseGrantedOnEnqueue(t *testing.T) {
	jnl := newJournalSignal("job.lease")
	f := startFleet(t, Options{Journal: obs.NewJournal(jnl)})
	parked := parkSignal(f.coord, time.Hour)
	f.launch(&Worker{
		Name:   "w1",
		Engine: engine.New(engine.Options{}),
		Poll:   2 * time.Second,
		Sleep: func(d time.Duration) {
			f.coord.mu.Lock()
			queued := len(f.coord.queue)
			f.coord.mu.Unlock()
			if queued > 0 {
				t.Errorf("worker slept %v with %d tasks queued", d, queued)
			}
		},
	})
	specs := distSpecs(2_000)[:3]
	want := localRun(t, specs)
	for i, spec := range specs {
		// Every job arrives at an idle fleet: the worker is parked again
		// before the next is queued, so each grant releases a held
		// request and says for how long it was held.
		if hold := <-parked; hold != 2*time.Second {
			t.Fatalf("parked with hold %v, want the worker's Poll (2s)", hold)
		}
		res, err := simulateOne(context.Background(), f.coord, spec)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		if res.Fingerprint() != want[i].Fingerprint() {
			t.Fatalf("spec %d diverged from the local run", i)
		}
		if ev := jnl.next(t); ev["held_us"].(float64) <= 0 {
			t.Errorf("grant %d journals held_us=%v, want the time it was parked", i, ev["held_us"])
		}
	}
	if st := f.coord.Stats(); st.LeasesGranted != 3 || st.JobsCompleted != 3 {
		t.Errorf("granted=%d completed=%d, want 3 and 3", st.LeasesGranted, st.JobsCompleted)
	}
}

// TestParkedLeaseReleasedByClose: Close returns only once every parked
// handler has left, and each replies empty-handed rather than hanging.
func TestParkedLeaseReleasedByClose(t *testing.T) {
	before := faults.Goroutines()
	c := NewCoordinator(Options{})
	parked := parkSignal(c, time.Hour)
	replies := make(chan *httptest.ResponseRecorder, 2)
	for _, name := range []string{"w1", "w2"} {
		body := `{"worker":"` + name + `","wait_ms":1000}`
		go func() { replies <- postLease(c, body) }()
	}
	<-parked
	<-parked
	c.Close()
	for i := 0; i < 2; i++ {
		rec := <-replies
		var resp leaseResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK || resp.Job != nil {
			t.Errorf("released lease replied %d %q, want an empty 200", rec.Code, rec.Body)
		}
	}
	if err := before.Leaked(5 * time.Second); err != nil {
		t.Error(err)
	}
}

// TestParkedLeaseReleasedByCancel: a worker that goes away takes its
// parked request with it — over a real connection, where the server has
// to notice the client leaving — and a job queued afterwards is not
// granted to the departed request.
func TestParkedLeaseReleasedByCancel(t *testing.T) {
	before := faults.Goroutines()
	jnl := newJournalSignal("job.queue")
	c := NewCoordinator(Options{Journal: obs.NewJournal(jnl)})
	parked := parkSignal(c, time.Hour)
	mux := http.NewServeMux()
	Register(mux, c)
	handled := make(chan struct{}, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mux.ServeHTTP(w, r)
		handled <- struct{}{}
	}))
	tr := &http.Transport{}
	w := &Worker{Name: "w1", Poll: time.Second,
		Client: &Client{Base: srv.URL, HTTP: &http.Client{Transport: tr}}}
	ctx, cancel := context.WithCancel(context.Background())
	leased := make(chan error, 1)
	go func() {
		_, _, err := w.lease(ctx)
		leased <- err
	}()
	<-parked
	cancel()
	if err := <-leased; err == nil {
		t.Error("cancelled lease returned no error")
	}
	<-handled // the handler left its park without a timer or an enqueue

	done := submitQueued(t, c, jnl, testSpec(0))
	job := mustLease(t, c, "w2")
	if got := c.Push(goodPush("w2", job, localResult(t, testSpec(0)))); got != PushAccepted {
		t.Fatalf("push = %v, want accepted", got)
	}
	if o := <-done; o.err != nil {
		t.Fatal(o.err)
	}
	if st := c.Stats(); st.LeasesGranted != 1 {
		t.Errorf("LeasesGranted = %d, want 1: the cancelled request must not be granted", st.LeasesGranted)
	}
	c.Close()
	srv.Close()
	tr.CloseIdleConnections()
	if err := before.Leaked(5 * time.Second); err != nil {
		t.Error(err)
	}
}

// TestHoldRunsOut: with nothing to grant the request comes back empty
// once its hold is spent, reporting the hold, and the worker then skips
// its idle sleep.
func TestHoldRunsOut(t *testing.T) {
	c := NewCoordinator(Options{})
	defer c.Close()
	parked := parkSignal(c, 0)
	rec := postLease(c, `{"worker":"w1","wait_ms":40}`)
	if hold := <-parked; hold != 40*time.Millisecond {
		t.Errorf("armed a %v hold, want 40ms", hold)
	}
	var resp leaseResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("reply %d %q: %v", rec.Code, rec.Body, err)
	}
	if resp.Job != nil || resp.HeldUS < 0 || resp.NowUnixNS == 0 {
		t.Errorf("reply = %+v, want no job, a hold and a clock", resp)
	}

	// What the worker does with that: it idles only the part of its Poll
	// the coordinator did not hold it.
	var slept []time.Duration
	w := &Worker{Sleep: func(d time.Duration) { slept = append(slept, d) }}
	w.idle(context.Background(), 0)
	w.idle(context.Background(), 15*time.Millisecond)
	if len(slept) != 1 || slept[0] != 15*time.Millisecond {
		t.Errorf("idled %v, want only the 15ms remainder", slept)
	}
}

// TestOldWorkerNewCoordinator: a lease request without wait_ms is never
// held, and its reply carries nothing an old worker has not seen.
func TestOldWorkerNewCoordinator(t *testing.T) {
	c := NewCoordinator(Options{})
	defer c.Close()
	c.newTimer = func(time.Duration) *time.Timer {
		t.Error("a request without wait_ms was parked")
		return time.NewTimer(0)
	}
	rec := postLease(c, `{"worker":"w1","version":"old"}`)
	var reply map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("reply %d %q: %v", rec.Code, rec.Body, err)
	}
	if _, ok := reply["now_unix_ns"]; !ok || len(reply) != 1 {
		t.Errorf("idle reply to an old worker = %v, want only now_unix_ns", reply)
	}
}

// TestNewWorkerOldCoordinator: a coordinator that ignores wait_ms answers
// at once and reports no hold, so the worker sleeps its whole Poll
// between attempts, exactly as before.
func TestNewWorkerOldCoordinator(t *testing.T) {
	var mu sync.Mutex
	var bodies []leaseRequest
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req leaseRequest
		json.NewDecoder(r.Body).Decode(&req)
		mu.Lock()
		bodies = append(bodies, req)
		mu.Unlock()
		httpmon.WriteJSON(w, http.StatusOK, struct {
			NowUnixNS int64 `json:"now_unix_ns"`
		}{time.Now().UnixNano()})
	}))
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var slept []time.Duration
	w := &Worker{Name: "w1", Client: &Client{Base: srv.URL}, Poll: 70 * time.Millisecond}
	w.Sleep = func(d time.Duration) {
		if slept = append(slept, d); len(slept) == 3 {
			cancel()
		}
	}
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	for _, d := range slept {
		if d != w.Poll {
			t.Errorf("slept %v between attempts, want the whole Poll (%v)", d, w.Poll)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(bodies) != 3 || bodies[0].WaitMS != 70 {
		t.Errorf("lease requests = %+v, want three asking for wait_ms=70", bodies)
	}
}

// TestSkewSampleExcludesHold: a lease answered at once reports no hold, a
// parked one reports at least its whole Poll, and each feeds its
// worker's skew estimator a sample. What the estimator makes of the hold
// is TestSkewEstimatorExcludesHold's arithmetic on synthetic stamps;
// this test asserts nothing a descheduled process could break, since a
// real round trip's duration is up to the machine.
func TestSkewSampleExcludesHold(t *testing.T) {
	const offset = 90 * time.Second
	const hold = 300 * time.Millisecond
	jnl := newJournalSignal("job.queue")
	f := startFleet(t, Options{Journal: obs.NewJournal(jnl),
		Clock: func() time.Time { return time.Now().Add(offset) }})
	done := submitQueued(t, f.coord, jnl, testSpec(0))

	prompt := &Worker{Name: "prompt", Client: &Client{Base: f.srv.URL}, Poll: hold}
	jobs, held, err := prompt.lease(context.Background())
	if err != nil || len(jobs) != 1 || held != 0 {
		t.Fatalf("prompt lease = %v held=%v err=%v, want a job at once", jobs, held, err)
	}
	job := jobs[0]
	parkedW := &Worker{Name: "parked", Client: &Client{Base: f.srv.URL}, Poll: hold}
	job2, held, err := parkedW.lease(context.Background())
	if err != nil || job2 != nil || held < hold {
		t.Fatalf("parked lease = %v held=%v err=%v, want no job after the whole hold", job2, held, err)
	}

	for _, w := range []*Worker{prompt, parkedW} {
		if _, ok := w.SkewNS(); !ok {
			t.Errorf("%s: its lease fed the skew estimator no sample", w.Name)
		}
	}
	f.coord.Push(goodPush("prompt", job, localResult(t, testSpec(0))))
	if o := <-done; o.err != nil {
		t.Fatal(o.err)
	}
}

// TestQueueReleasesGrantedTasks: taking a task from the head or the
// middle of the queue clears the slot it vacates; the backing array must
// not keep granted tasks (spec, result, span history) reachable.
func TestQueueReleasesGrantedTasks(t *testing.T) {
	jnl := newJournalSignal("job.queue")
	c := NewCoordinator(Options{Journal: obs.NewJournal(jnl)})
	defer c.Close()
	// Queue: A1 B1 A2. w1 takes A1 (head) then A2 (from behind B1).
	specs := traceSpecs(2, "Dir0B", "Dir1NB")
	for _, i := range []int{0, 2, 1} {
		submitQueued(t, c, jnl, specs[i])
	}
	first := mustLease(t, c, "w1")
	second := mustLease(t, c, "w1")
	if first.Key != engine.KeyHex(specs[0].Key()) || second.Key != engine.KeyHex(specs[1].Key()) {
		t.Fatalf("w1 was not kept on its trace: got %s then %s", shortKey(first.Key), shortKey(second.Key))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.queue) != 1 {
		t.Fatalf("queue holds %d tasks, want 1", len(c.queue))
	}
	for i, slot := range c.queue[1:cap(c.queue)] {
		if slot != nil {
			t.Errorf("vacated slot %d still references task %s", i+1, shortKey(slot.key))
		}
	}
}

// TestAffineGrantsHalveRegeneration: three traces × six schemes through
// the coordinator alone, two workers that each lease the moment they
// have pushed. A worker generates a trace the first time it is granted a
// task on it; affinity makes that four generations where FIFO order
// makes six.
func TestAffineGrantsHalveRegeneration(t *testing.T) {
	jnl := newJournalSignal("job.queue")
	c := NewCoordinator(Options{Journal: obs.NewJournal(jnl)})
	defer c.Close()
	byTrace := traceSpecs(3, "Dir1NB", "WTI", "Dir0B", "DirNNB", "Dir1B", "Dragon")
	results := make(map[string]*resultPush)
	// Scheme-major, the order a sweep arrives in: consecutive tasks are on
	// different traces.
	var waiters []chan outcome
	for s := 0; s < 6; s++ {
		for tr := 0; tr < 3; tr++ {
			spec := byTrace[tr*6+s]
			waiters = append(waiters, submitQueued(t, c, jnl, spec))
			results[engine.KeyHex(spec.Key())] = &resultPush{Result: localResult(t, spec)}
		}
	}

	generated := map[string]map[engine.Key]bool{"w1": {}, "w2": {}}
	held := map[string]*JobSpec{}
	lease := func(w string) {
		job, _ := tryLease(c, w)
		if held[w] = job; job != nil {
			generated[w][engine.TraceKey(job.Spec.Trace)] = true
		}
	}
	lease("w1")
	lease("w2")
	for held["w1"] != nil || held["w2"] != nil {
		for _, w := range []string{"w1", "w2"} {
			if job := held[w]; job != nil {
				if got := c.Push(goodPush(w, job, results[job.Key].Result)); got != PushAccepted {
					t.Fatalf("push by %s = %v", w, got)
				}
				lease(w)
			}
		}
	}
	for _, ch := range waiters {
		if o := <-ch; o.err != nil {
			t.Fatal(o.err)
		}
	}
	if n := len(generated["w1"]) + len(generated["w2"]); n != 4 {
		t.Errorf("fleet generated %d traces for 3 distinct, want 4", n)
	}
	st := c.Stats()
	if st.LeasesGranted != 18 || st.LeasesAffine != 14 {
		t.Errorf("granted=%d affine=%d, want 18 grants of which 14 kept a worker on its trace",
			st.LeasesGranted, st.LeasesAffine)
	}
	if got := c.reg.Counter("dist.leases.affine").Value(); got != st.LeasesAffine {
		t.Errorf("registry dist.leases.affine = %d, Stats says %d", got, st.LeasesAffine)
	}
}

// TestAffinityNeverStarvesATask: a task on a trace claimed by a worker
// that never returns is passed over only while it has waited less than
// HedgeAfter, and the claim lives exactly as long as the dead lease.
func TestAffinityNeverStarvesATask(t *testing.T) {
	clk := newFakeClock()
	jnl := newJournalSignal("job.queue")
	c := NewCoordinator(Options{Clock: clk.Now, Journal: obs.NewJournal(jnl),
		LeaseTTL: 60 * time.Second, HedgeAfter: 30 * time.Second, DegradeAfter: time.Hour})
	defer c.Close()
	x := traceSpecs(1, "Dir0B", "Dir1NB", "WTI")
	y := traceSpecs(2, "Dir0B", "Dir1NB", "WTI")[3:]
	z := traceSpecs(3, "Dir0B", "Dir1NB")[4:]
	keyOf := func(s engine.SimSpec) string { return engine.KeyHex(s.Key()) }
	serve := func(w string, job *JobSpec) {
		t.Helper()
		if got := c.Push(goodPush(w, job, localResult(t, job.Spec))); got != PushAccepted {
			t.Fatalf("push by %s = %v", w, got)
		}
	}
	expect := func(w string, want engine.SimSpec, why string) *JobSpec {
		t.Helper()
		job := mustLease(t, c, w)
		if job.Key != keyOf(want) {
			t.Fatalf("%s was granted %s@%s, want %s@%s: %s", w, job.Spec.Scheme, job.Spec.Trace.Name,
				want.Scheme, want.Trace.Name, why)
		}
		return job
	}

	for _, s := range []engine.SimSpec{x[0], x[1], y[0], y[1], y[2]} {
		submitQueued(t, c, jnl, s)
	}
	expect("dead", x[0], "the head of an unclaimed queue") // and never heard from again
	job := expect("b", y[0], "trace x is claimed by another worker")
	serve("b", job)
	job = expect("b", y[1], "b holds trace y")
	clk.Advance(30 * time.Second)
	serve("b", job)
	job = expect("b", x[1], "it has waited HedgeAfter, affinity or not")
	serve("b", job)
	serve("b", expect("b", y[2], "the only task left"))

	// The dead worker's lease is still unresolved: its claim on trace x
	// steers a fresh worker to trace z.
	clk.Advance(10 * time.Second)
	submitQueued(t, c, jnl, x[2])
	submitQueued(t, c, jnl, z[0])
	serve("c", expect("c", z[0], "trace x is still claimed by the dead worker's lease"))
	submitQueued(t, c, jnl, z[1])

	// Expiry resolves the lease, and with it the claim.
	clk.Advance(21 * time.Second)
	c.Sweep()
	if st := c.Stats(); st.LeasesExpired != 1 {
		t.Fatalf("LeasesExpired = %d, want the dead worker's one", st.LeasesExpired)
	}
	expect("d", x[2], "the oldest task, its trace no longer claimed")
}

// FuzzLeaseRequest drives the lease handler with arbitrary bodies. What
// it cannot parse, or cannot attribute to a worker, it refuses with a
// 400; everything else gets an answer (the queue is empty: an empty one),
// and whatever wait_ms says — negative, fractional, a string, far past
// int64 — no request is parked for longer than maxLeaseHold. The seed
// corpus (testdata/fuzz) holds one body of each kind.
func FuzzLeaseRequest(f *testing.F) {
	c := NewCoordinator(Options{})
	f.Cleanup(c.Close)
	var armed []time.Duration
	c.newTimer = func(hold time.Duration) *time.Timer {
		armed = append(armed, hold)
		return time.NewTimer(0)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) >= 1<<16 {
			t.Skip("past the handler's body limit")
		}
		armed = armed[:0]
		rec := postLease(c, string(body))

		var parsed leaseRequest
		valid := json.NewDecoder(bytes.NewReader(body)).Decode(&parsed) == nil && parsed.Worker != ""
		switch {
		case !valid && rec.Code != http.StatusBadRequest:
			t.Fatalf("body %q answered %d, want 400", body, rec.Code)
		case valid && rec.Code != http.StatusOK:
			t.Fatalf("body %q answered %d %s, want 200", body, rec.Code, rec.Body)
		}
		for _, hold := range armed {
			if hold <= 0 || hold > maxLeaseHold {
				t.Fatalf("body %q parked for %v, outside (0, %v]", body, hold, maxLeaseHold)
			}
		}
		if (len(armed) > 0) != (valid && parsed.WaitMS > 0) {
			t.Fatalf("body %q (wait_ms=%d) armed %d holds", body, parsed.WaitMS, len(armed))
		}
		if valid {
			var resp leaseResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Job != nil || resp.HeldUS < 0 {
				t.Fatalf("body %q: reply %s (%v), want an empty lease", body, rec.Body, err)
			}
		}
	})
}

// TestSweepLeavesAQueuedTaskAlone: a lease that expires on a task already
// queued again must not requeue it a second time, which would spend one
// of its maxAttempts and journal a spurious job.requeue, so the job
// could degrade to local an attempt early. No public path queues a task
// that still holds a lease today; the test puts it in that state under
// the coordinator's lock, on a fake clock, and drives Sweep directly.
func TestSweepLeavesAQueuedTaskAlone(t *testing.T) {
	clk := newFakeClock()
	jnl := newJournalSignal("job.queue", "job.requeue", "job.lease.expire")
	c := NewCoordinator(Options{LeaseTTL: 10 * time.Second, Clock: clk.Now, Journal: obs.NewJournal(jnl)})
	defer c.Close()

	spec := testSpec(0)
	submitQueued(t, c, jnl, spec)
	job := mustLease(t, c, "w1")
	c.mu.Lock()
	tk := c.tasks[job.Key]
	c.enqueueLocked(tk)
	attempts := tk.attempts
	c.mu.Unlock()

	clk.Advance(11 * time.Second)
	c.Sweep()
	if line := jnl.next(t); line["msg"] != "job.lease.expire" {
		t.Fatalf("sweep journaled %v first, want the lease's expiry", line["msg"])
	}
	select {
	case line := <-jnl.ch:
		t.Errorf("sweep journaled %v after the expiry of a queued task's lease", line["msg"])
	default:
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if tk.attempts != attempts || !tk.queued || len(c.queue) != 1 {
		t.Errorf("attempts %d -> %d, queued %v, queue length %d; want the task queued once, attempts unchanged",
			attempts, tk.attempts, tk.queued, len(c.queue))
	}
	if n := c.jobsRequeued.Value(); n != 0 {
		t.Errorf("dist.jobs.requeued = %d, want 0", n)
	}
}
