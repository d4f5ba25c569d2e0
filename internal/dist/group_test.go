package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"dirsim/internal/engine"
	"dirsim/internal/obs"
	"dirsim/internal/obs/httpmon"
	"dirsim/internal/service"
	"dirsim/internal/sim"
)

// familySpecs returns the four MRSW family schemes of the paper over one
// trace: what one engine walk job offers its Remote in one call.
func familySpecs() []engine.SimSpec {
	return traceSpecs(1, "Dir0B", "WTI", "DirNNB", "Dir1B")
}

// submitGroup offers specs to the coordinator in one call, as an engine
// walk job does, and returns once all of them are queued.
func submitGroup(t *testing.T, c *Coordinator, specs []engine.SimSpec) chan []outcome {
	t.Helper()
	before := c.Stats().JobsSubmitted
	ch := make(chan []outcome, 1)
	go func() {
		rs, errs := c.SimulateRemote(context.Background(), specs)
		out := make([]outcome, len(specs))
		for i := range out {
			out[i] = outcome{rs[i], errs[i]}
		}
		ch <- out
	}()
	waitSubmitted(t, c, before+int64(len(specs)))
	return ch
}

// TestGroupGrantedWhole: a worker that declares groups is granted the
// task it picks and every queued sibling in one reply, each under its own
// key, lease and trace context; a worker that does not declare it gets
// exactly one job, and its reply carries no sibling field. The books
// stay per task.
func TestGroupGrantedWhole(t *testing.T) {
	c := NewCoordinator(Options{})
	defer c.Close()
	specs := familySpecs()
	done := submitGroup(t, c, specs)

	rec := postLease(c, `{"worker":"old","version":"old"}`)
	var reply map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("reply %d %q: %v", rec.Code, rec.Body, err)
	}
	if _, ok := reply["siblings"]; ok || reply["job"] == nil {
		t.Fatalf("reply to a worker without groups = %s, want one job and no siblings", rec.Body)
	}
	var old JobSpec
	if err := json.Unmarshal(reply["job"], &old); err != nil {
		t.Fatal(err)
	}

	rec = postLease(c, `{"worker":"new","groups":true}`)
	var resp leaseResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("reply %d %q: %v", rec.Code, rec.Body, err)
	}
	jobs := append(resp.jobs(), &old)
	if len(resp.jobs()) != len(specs)-1 {
		t.Fatalf("worker with groups was granted %d jobs, want the %d queued siblings", len(resp.jobs()), len(specs)-1)
	}
	keys, leases := map[string]bool{}, map[string]bool{}
	for _, j := range jobs {
		keys[j.Key], leases[j.Lease] = true, true
	}
	if len(keys) != len(specs) || len(leases) != len(specs) {
		t.Errorf("%d jobs carry %d keys and %d leases, want one each", len(jobs), len(keys), len(leases))
	}
	for _, j := range jobs {
		worker := "new"
		if j == &old {
			worker = "old"
		}
		if got := c.Push(goodPush(worker, j, localResult(t, j.Spec))); got != PushAccepted {
			t.Fatalf("push of %s = %v", j.Spec.Scheme, got)
		}
	}
	for i, o := range <-done {
		if o.err != nil || !reflect.DeepEqual(o.res, localResult(t, specs[i])) {
			t.Errorf("%s: %v", specs[i].Scheme, o.err)
		}
	}
	st := c.Stats()
	if st.LeasesGranted != 4 || st.JobsCompleted != 4 {
		t.Errorf("granted=%d completed=%d, want 4 and 4: leases and books stay per task", st.LeasesGranted, st.JobsCompleted)
	}
	checkInvariant(t, c)
}

// TestGroupMemberLostLeaseDiscarded: one member of a granted group loses
// its lease (it missed its heartbeats and the sweep expired it); its push
// is discarded with 410 while its siblings' pushes are accepted, and the
// requeued member completes on another worker. The worker's busy time
// counts its overlapping leases once.
func TestGroupMemberLostLeaseDiscarded(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(Options{Clock: clk.Now, LeaseTTL: 10 * time.Second, HedgeAfter: time.Hour, DegradeAfter: time.Hour})
	defer c.Close()
	specs := familySpecs()
	done := submitGroup(t, c, specs)
	jobs, _, _ := c.leaseWait(context.Background(), "w1", "", true, 0)
	if len(jobs) != len(specs) {
		t.Fatalf("granted %d jobs, want the whole group of %d", len(jobs), len(specs))
	}
	clk.Advance(6 * time.Second)
	for _, j := range jobs[1:] {
		if !c.Heartbeat("w1", j.Lease, nil) {
			t.Fatalf("heartbeat on %s rejected", j.Lease)
		}
	}
	clk.Advance(5 * time.Second)
	c.Sweep()
	if st := c.Stats(); st.LeasesExpired != 1 || st.JobsRequeued != 1 {
		t.Fatalf("expired=%d requeued=%d, want the one silent member's lease", st.LeasesExpired, st.JobsRequeued)
	}
	for i, j := range jobs {
		body, err := json.Marshal(goodPush("w1", j, localResult(t, j.Spec)))
		if err != nil {
			t.Fatal(err)
		}
		want := http.StatusOK
		if i == 0 {
			want = http.StatusGone
		}
		if rec := postBody(c.handleResult, "/api/v1/dist/result", body); rec.Code != want {
			t.Errorf("push of %s answered %d, want %d", j.Spec.Scheme, rec.Code, want)
		}
	}
	again := mustLease(t, c, "w2")
	if again.Key != jobs[0].Key {
		t.Fatalf("w2 was granted %s, want the requeued member", again.Spec.Scheme)
	}
	if got := c.Push(goodPush("w2", again, localResult(t, again.Spec))); got != PushAccepted {
		t.Fatalf("push of the requeued member = %v", got)
	}
	for i, o := range <-done {
		if o.err != nil || !reflect.DeepEqual(o.res, localResult(t, specs[i])) {
			t.Errorf("%s: %v", specs[i].Scheme, o.err)
		}
	}
	st := c.Stats()
	if st.JobsCompleted != 4 || st.ResultsDuplicate != 1 {
		t.Errorf("completed=%d duplicate=%d, want 4 and 1", st.JobsCompleted, st.ResultsDuplicate)
	}
	// w1 held four leases at once for 11 s: busy 11 s, not 44.
	if w := st.Workers[0]; w.Name != "w1" || w.BusyMS != 11_000 || w.UtilizationPct != 100 {
		t.Errorf("w1 busy %d ms, %.0f%%; want 11000 ms, 100%%", w.BusyMS, w.UtilizationPct)
	}
	checkInvariant(t, c)
}

// TestGroupOutOfAttemptsWalksLocallyOnce: a group whose every grant comes
// back rejected runs out of attempts member by member; every member
// degrades, and the lead engine walks all four locally, together, once.
func TestGroupOutOfAttemptsWalksLocallyOnce(t *testing.T) {
	c := NewCoordinator(Options{DegradeAfter: time.Hour})
	defer c.Close()
	specs := familySpecs()
	want := localRun(t, specs)
	lead := engine.New(engine.Options{Remote: c})
	type batch struct {
		rs  []*sim.Result
		err error
	}
	done := make(chan batch, 1)
	go func() {
		rs, err := lead.Results(context.Background(), engine.Parallel{}, specs)
		done <- batch{rs, err}
	}()
	waitSubmitted(t, c, int64(len(specs)))
	for attempt := 0; attempt < maxAttempts; attempt++ {
		// A fresh worker each round: the rejections open its breaker.
		jobs, _, _ := c.leaseWait(context.Background(), fmt.Sprintf("w%d", attempt), "", true, 0)
		if len(jobs) != len(specs) {
			t.Fatalf("round %d granted %d jobs, want the whole group", attempt, len(jobs))
		}
		for _, j := range jobs {
			p := goodPush("", j, localResult(t, j.Spec))
			p.Worker, p.Fingerprint = fmt.Sprintf("w%d", attempt), "0x1"
			if got := c.Push(p); got != PushRejected {
				t.Fatalf("round %d: tampered push = %v", attempt, got)
			}
		}
	}
	b := <-done
	if b.err != nil || !reflect.DeepEqual(b.rs, want) {
		t.Fatalf("degraded group diverged from the local run (err %v)", b.err)
	}
	if st := c.Stats(); st.JobsDegraded != 4 || st.JobsCompleted != 0 {
		t.Errorf("degraded=%d completed=%d, want 4 and 0", st.JobsDegraded, st.JobsCompleted)
	}
	checkInvariant(t, c)
	if es := lead.Stats(); es.RemoteDegraded != 4 || es.Walks != 1 || es.SimsRun != 4 {
		t.Errorf("lead engine: degraded=%d walks=%d sims=%d, want 4 members in 1 local walk",
			es.RemoteDegraded, es.Walks, es.SimsRun)
	}
}

// TestWorkerRunsAReplyWithoutSiblings: a coordinator that knows nothing of
// groups replies with one job; the worker, which asked for groups, runs
// that job and pushes its result exactly as before.
func TestWorkerRunsAReplyWithoutSiblings(t *testing.T) {
	spec := familySpecs()[0]
	job := JobSpec{Key: engine.KeyHex(spec.Key()), Spec: spec, Lease: "L1", TTLMS: 10_000}
	var mu sync.Mutex
	var asked []leaseRequest
	var pushes []resultPush
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		switch r.URL.Path {
		case "/api/v1/dist/lease":
			var req leaseRequest
			json.NewDecoder(r.Body).Decode(&req)
			asked = append(asked, req)
			reply := map[string]any{"now_unix_ns": time.Now().UnixNano()}
			if len(asked) == 1 {
				reply["job"] = job
			}
			httpmon.WriteJSON(w, http.StatusOK, reply)
		case "/api/v1/dist/result":
			var p resultPush
			json.NewDecoder(r.Body).Decode(&p)
			pushes = append(pushes, p)
			httpmon.WriteJSON(w, http.StatusOK, struct{}{})
			cancel()
		default:
			httpmon.WriteJSON(w, http.StatusOK, struct{}{})
		}
	}))
	defer srv.Close()
	w := &Worker{Name: "w1", Client: &Client{Base: srv.URL}, Engine: engine.New(engine.Options{}), Poll: time.Millisecond}
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(asked) == 0 || !asked[0].Groups {
		t.Errorf("lease requests = %+v, want the first to declare groups", asked)
	}
	if len(pushes) != 1 || pushes[0].Lease != "L1" || pushes[0].Key != job.Key ||
		!reflect.DeepEqual(pushes[0].Result, localResult(t, spec)) {
		t.Errorf("pushes = %+v, want the one job's result under its lease", pushes)
	}
}

// TestFleetWalksEachFamilyOnce: a service, a coordinator and two workers
// over the paper's six schemes and three traces. The 18 results are
// bit-identical to a local engine's, and the workers price them in 9
// walks: per trace, one for the four MRSW family schemes and one each
// for Dir1NB and Dragon. The coordinator's books stay per task.
func TestFleetWalksEachFamilyOnce(t *testing.T) {
	f := startFleet(t, Options{})
	svc, err := service.New(service.Config{Remote: f.coord})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	defer svc.Drain(context.Background())
	var engines []*engine.Engine
	for _, name := range []string{"w1", "w2"} {
		eng := engine.New(engine.Options{})
		engines = append(engines, eng)
		f.launch(&Worker{Name: name, Engine: eng})
	}

	spec := service.Spec{Schemes: []string{"Dir1NB", "WTI", "Dir0B", "DirNNB", "Dir1B", "Dragon"}}
	for _, name := range []string{"pops", "thor", "pero"} {
		spec.Workloads = append(spec.Workloads, service.WorkloadSpec{Name: name, CPUs: []int{4}, Refs: 8_000})
	}
	specs, _, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	want := localRun(t, specs)

	ctx := obs.WithTrace(context.Background(), obs.TraceContext{Trace: "f1ee7f00d0000001"})
	exp, _, err := svc.Submit(ctx, "t", spec)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	svc.Register(mux)
	var st service.ExperimentStatus
	waitFor(t, "the sweep to finish", func() bool {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/experiments/"+exp.ID, nil))
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		return st.State == service.StateDone || st.State == service.StateFailed
	})
	if st.State != service.StateDone || len(st.Results) != len(want) {
		t.Fatalf("sweep ended %s with %d results (%s), want done with %d", st.State, len(st.Results), st.Error, len(want))
	}
	for i, r := range st.Results {
		if r.Fingerprint != fmt.Sprintf("%016x", want[i].Fingerprint()) || !reflect.DeepEqual(r.Result, want[i]) {
			t.Errorf("%s@%s diverged from the local engine's", r.Scheme, r.Workload)
		}
	}
	f.stop()
	var walks, sims int64
	for _, eng := range engines {
		walks, sims = walks+eng.Stats().Walks, sims+eng.Stats().SimsRun
	}
	if walks != 9 || sims != 18 {
		t.Errorf("workers ran %d simulations in %d walks, want 18 in 9", sims, walks)
	}
	cs := f.coord.Stats()
	if cs.JobsCompleted != 18 || cs.LeasesGranted != 18 {
		t.Errorf("completed=%d granted=%d, want 18 tasks each leased once", cs.JobsCompleted, cs.LeasesGranted)
	}
	checkInvariant(t, f.coord)
}
