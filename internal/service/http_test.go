package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dirsim/internal/engine"
	"dirsim/internal/obs"
	"dirsim/internal/obs/httpmon"
	"dirsim/internal/sim"
)

// recorder is a ResponseWriter that keeps the body, counts Flush calls,
// and can hold the handler inside its first body Write until released —
// a subscriber that has stopped reading.
type recorder struct {
	mu      sync.Mutex
	header  http.Header
	body    bytes.Buffer
	flushes int

	entered chan struct{} // closed when the first Write arrives
	flushed chan struct{} // closed by the first Flush
	release chan struct{} // nil: Writes never wait
	once    sync.Once
}

func newRecorder(stall bool) *recorder {
	r := &recorder{header: make(http.Header),
		entered: make(chan struct{}), flushed: make(chan struct{})}
	if stall {
		r.release = make(chan struct{})
	}
	return r
}

func (r *recorder) Header() http.Header { return r.header }
func (r *recorder) WriteHeader(int)     {}

func (r *recorder) Write(p []byte) (int, error) {
	r.once.Do(func() { close(r.entered) })
	if r.release != nil {
		<-r.release
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.body.Write(p)
}

func (r *recorder) Flush() {
	r.mu.Lock()
	r.flushes++
	if r.flushes == 1 {
		close(r.flushed)
	}
	r.mu.Unlock()
}

func (r *recorder) snapshot() (string, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.body.String(), r.flushes
}

// submitDirect submits spec in process and returns the experiment.
func submitDirect(t *testing.T, svc *Service, spec Spec) *Experiment {
	t.Helper()
	exp, _, err := svc.Submit(context.Background(), "t", spec)
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

// history returns every line of the experiment's journal, blocking
// until the experiment has finished and closed its record.
func history(exp *Experiment) []string {
	for {
		lines, closed, next := exp.record.Follow(0)
		if closed {
			out := make([]string, len(lines))
			for i, l := range lines {
				out[i] = string(l)
			}
			return out
		}
		<-next
	}
}

func eventsRequest(ctx context.Context, id string) *http.Request {
	req := httptest.NewRequest("GET", "/api/v1/experiments/"+id+"/events", nil).WithContext(ctx)
	req.SetPathValue("id", id)
	return req
}

// TestEventsReplayFlushedOnce: a subscriber arriving after the experiment
// finished gets every line of its record as its own data frame, in
// order, then the end frame — and the whole replay leaves in a couple of
// flushes, not one per frame.
func TestEventsReplayFlushedOnce(t *testing.T) {
	svc := newTestService(t, Config{Verify: true})
	svc.Start()
	defer svc.Drain(context.Background())
	exp := submitDirect(t, svc, smallSpec(0))
	want := history(exp)
	if len(want) < 8 {
		t.Fatalf("only %d journal lines; the test needs a replay worth batching", len(want))
	}

	rec := newRecorder(false)
	svc.handleEvents(rec, eventsRequest(context.Background(), exp.ID))
	body, flushes := rec.snapshot()

	frames := strings.Split(strings.TrimSuffix(body, "\n\n"), "\n\n")
	if last := frames[len(frames)-1]; last != "event: end\ndata: {}" {
		t.Fatalf("stream ends with %q, want the end frame", last)
	}
	frames = frames[:len(frames)-1]
	if len(frames) != len(want) {
		t.Fatalf("%d data frames, want %d (one per record line)", len(frames), len(want))
	}
	for i, f := range frames {
		if f != "data: "+want[i] {
			t.Fatalf("frame %d = %q, want record line %q", i, f, want[i])
		}
	}
	if flushes < 1 || flushes > 2 {
		t.Errorf("%d flushes for %d frames; a finished experiment's replay should leave in one or two", flushes, len(frames))
	}
}

// TestEventsLiveFrameNotHeld: with the experiment still queued (no worker
// running) the stream must deliver experiment.queued and flush it without
// waiting for another event to push it out.
func TestEventsLiveFrameNotHeld(t *testing.T) {
	svc := newTestService(t, Config{})
	exp := submitDirect(t, svc, smallSpec(0))

	ctx, cancel := context.WithCancel(context.Background())
	rec := newRecorder(false)
	done := make(chan struct{})
	go func() {
		defer close(done)
		svc.handleEvents(rec, eventsRequest(ctx, exp.ID))
	}()
	select {
	case <-rec.flushed:
	case <-time.After(10 * time.Second):
		t.Fatal("nothing was flushed to a subscriber of a queued experiment")
	}
	if body, _ := rec.snapshot(); !strings.Contains(body, `"msg":"experiment.queued"`) {
		t.Errorf("first flush carried %q, want the experiment.queued frame", body)
	}
	if body, _ := rec.snapshot(); strings.Contains(body, "event: end") {
		t.Error("stream of a queued experiment already ended")
	}
	cancel()
	<-done
	svc.Start()
	svc.Drain(context.Background())
}

// TestEventsStalledSubscriberLosesNothing: a subscriber whose handler is
// stuck writing the first frame while the experiment runs to completion
// holds back neither the run nor its own stream: once it resumes it
// receives every line of the record, in order, then the end frame.
func TestEventsStalledSubscriberLosesNothing(t *testing.T) {
	svc := newTestService(t, Config{})
	exp := submitDirect(t, svc, smallSpec(0))

	rec := newRecorder(true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		svc.handleEvents(rec, eventsRequest(context.Background(), exp.ID))
	}()
	<-rec.entered // the handler is stuck writing experiment.queued
	svc.Start()
	defer svc.Drain(context.Background())
	want := history(exp) // returns once the experiment has finished
	close(rec.release)
	<-done

	body, _ := rec.snapshot()
	frames := strings.Split(strings.TrimSuffix(body, "\n\n"), "\n\n")
	if last := frames[len(frames)-1]; last != "event: end\ndata: {}" {
		t.Fatalf("stream ends with %q, want the end frame", last)
	}
	frames = frames[:len(frames)-1]
	if len(frames) != len(want) {
		t.Fatalf("%d data frames, want %d (every record line)", len(frames), len(want))
	}
	for i, f := range frames {
		if f != "data: "+want[i] {
			t.Fatalf("frame %d = %q, want record line %q", i, f, want[i])
		}
	}
}

// gate is an engine.Remote that holds every call until released and then
// declines it, so the experiment finishes locally. entered receives one
// value per call it holds.
type gate struct {
	entered chan struct{}
	release chan struct{}
}

func (g *gate) SimulateRemote(ctx context.Context, specs []engine.SimSpec) ([]*sim.Result, []error) {
	g.entered <- struct{}{}
	select {
	case <-g.release:
	case <-ctx.Done():
	}
	errs := make([]error, len(specs))
	for i := range errs {
		errs[i] = engine.ErrRemoteUnavailable
	}
	return make([]*sim.Result, len(specs)), errs
}

// TestExperimentJournalHoldsOnlyItsJobs: two experiments run at once and
// share one spec key; the shared engine simulates it once. Each
// experiment's history still holds exactly one job.scheduled, job.start
// and job.finish per spec key of its own — its own run of the key or its
// cache hit on the other's — and none for the other experiment's keys.
// No line repeats a key. The schemes are keyed ones, outside the MRSW
// family, so that every simulation is a job of its own key.
func TestExperimentJournalHoldsOnlyItsJobs(t *testing.T) {
	// Three remote simulations: Dragon once for both sweeps, Dir1NB,
	// Berkeley.
	g := &gate{entered: make(chan struct{}, 3), release: make(chan struct{})}
	svc := newTestService(t, Config{Remote: g, MaxInflight: 2})
	svc.Start()
	defer svc.Drain(context.Background())
	wl := []WorkloadSpec{{Name: "pops", CPUs: []int{4}, Refs: 3_000}}
	a := submitDirect(t, svc, Spec{Schemes: []string{"Dragon", "Dir1NB"}, Workloads: wl})
	b := submitDirect(t, svc, Spec{Schemes: []string{"Dragon", "Berkeley"}, Workloads: wl})
	// With all three held, both experiments are running.
	for i := 0; i < cap(g.entered); i++ {
		<-g.entered
	}
	close(g.release)

	for _, exp := range []*Experiment{a, b} {
		want := map[string]int{}
		for _, sp := range exp.specs {
			for _, msg := range []string{"job.scheduled", "job.start", "job.finish"} {
				want[msg+" "+sp.Key().String()] = 1
			}
		}
		got := map[string]int{}
		for _, line := range history(exp) {
			if k, err := obs.RepeatedKey([]byte(line)); err != nil || k != "" {
				t.Fatalf("%s history line repeats %q (%v): %s", exp.ID, k, err, line)
			}
			var l struct{ Msg, Key, Trace string }
			if err := json.Unmarshal([]byte(line), &l); err != nil {
				t.Fatal(err)
			}
			if l.Trace != exp.tc.Trace {
				t.Errorf("%s history line has trace %q, want %q: %s", exp.ID, l.Trace, exp.tc.Trace, line)
			}
			if strings.HasPrefix(l.Msg, "job.") && l.Key != "" {
				got[l.Msg+" "+l.Key]++
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s job lines per spec key = %v, want %v", exp.ID, got, want)
		}
	}
}

// TestBodiesAreCompactJSON: every handler answers with one line of JSON
// that decodes to the value the indented encoding carried.
func TestBodiesAreCompactJSON(t *testing.T) {
	svc := newTestService(t, Config{Verify: true})
	svc.Start()
	defer svc.Drain(context.Background())
	ts := startHTTP(t, svc)
	exp := submitDirect(t, svc, smallSpec(0))
	history(exp)

	fetch := func(method, path string, body []byte) []byte {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		out := buf.Bytes()
		if n := bytes.Count(out, []byte("\n")); n != 1 || !bytes.HasSuffix(out, []byte("\n")) {
			t.Errorf("%s %s: body is not a single line: %.120q", method, path, out)
		}
		return out
	}
	// sameAs decodes body and the indented rendering of want — the old
	// wire form — into untyped values and compares them.
	sameAs := func(what string, body []byte, want any) {
		t.Helper()
		indented, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		var a, b any
		if err := json.Unmarshal(body, &a); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if err := json.Unmarshal(indented, &b); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: compact body decodes differently from the indented rendering", what)
		}
	}

	st := svc.status(exp, true)
	if len(st.Results) != 2 || st.Results[0].Result == nil || st.Results[0].Fingerprint == "" {
		t.Fatalf("finished experiment renders without results: %+v", st)
	}
	spec, _ := json.Marshal(smallSpec(0))
	sameAs("get", fetch("GET", "/api/v1/experiments/"+exp.ID, nil), st)
	sameAs("resubmit", fetch("POST", "/api/v1/experiments", spec), st)
	sameAs("list", fetch("GET", "/api/v1/experiments", nil), struct {
		Experiments []ExperimentStatus `json:"experiments"`
	}{[]ExperimentStatus{svc.status(exp, false)}})
	sameAs("store", fetch("GET", "/api/v1/store", nil), storeStatus{})
	sameAs("not found", fetch("GET", "/api/v1/experiments/exp-nope", nil),
		httpmon.ErrorBody{Error: `no experiment "exp-nope"`})
	sameAs("bad spec", fetch("POST", "/api/v1/experiments", []byte(`{"schemes":[]}`)),
		httpmon.ErrorBody{Error: "spec: no schemes"})
	var h healthStatus
	if err := json.Unmarshal(fetch("GET", "/healthz", nil), &h); err != nil || h.Status != "ok" {
		t.Errorf("healthz: %+v, %v", h, err)
	}
}
