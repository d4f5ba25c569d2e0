package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"dirsim/internal/bus"
	"dirsim/internal/core"
	"dirsim/internal/faults"
	"dirsim/internal/obs"
	"dirsim/internal/obs/httpmon"
	"dirsim/internal/sim"
	"dirsim/internal/store"
	"dirsim/internal/trace"
	"dirsim/internal/workload"
)

// smallSpec is a cheap two-cell sweep (one workload, one CPU count, two
// schemes) used throughout; seed varies the content so tests that need
// distinct experiments get them.
func smallSpec(seed uint64) Spec {
	return Spec{
		Schemes:   []string{"Dir0B", "Dir1NB"},
		Workloads: []WorkloadSpec{{Name: "pops", CPUs: []int{4}, Refs: 5_000, Seed: seed}},
	}
}

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// startHTTP serves the service (plus monitor endpoints) from an
// httptest server.
func startHTTP(t *testing.T, svc *Service) *httptest.Server {
	t.Helper()
	mux := httpmon.NewMux(httpmon.Options{Metrics: svc.Metrics()})
	svc.Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func postSpec(t *testing.T, url, tenant string, spec Spec) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", url+"/api/v1/experiments", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(TenantHeader, tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", url, err)
		}
	}
	return resp
}

// waitDone follows the experiment's event stream to its end frame,
// which the service sends only once the experiment is in a terminal
// state, and then fetches that state.
func waitDone(t *testing.T, url, id string) ExperimentStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", url+"/api/v1/experiments/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	ended := false
	for sc := bufio.NewScanner(resp.Body); !ended && sc.Scan(); {
		ended = sc.Text() == "event: end"
	}
	resp.Body.Close()
	if !ended {
		t.Fatalf("experiment %s: event stream closed without its end frame (%v)", id, ctx.Err())
	}
	var st ExperimentStatus
	getJSON(t, url+"/api/v1/experiments/"+id, &st)
	switch st.State {
	case StateDone, StateFailed, StateAborted:
	default:
		t.Fatalf("experiment %s ended its stream in state %q", id, st.State)
	}
	return st
}

func TestSubmitRunAndFetch(t *testing.T) {
	svc := newTestService(t, Config{Verify: true})
	svc.Start()
	defer svc.Drain(context.Background())
	ts := startHTTP(t, svc)

	resp, body := postSpec(t, ts.URL, "team-a", smallSpec(0))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status %d: %s", resp.StatusCode, body)
	}
	var st ExperimentStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Specs != 2 || st.Tenant != "team-a" {
		t.Fatalf("submit response: %+v", st)
	}
	if loc := resp.Header.Get("Location"); loc != "/api/v1/experiments/"+st.ID {
		t.Errorf("Location = %q", loc)
	}

	final := waitDone(t, ts.URL, st.ID)
	if final.State != StateDone || len(final.Results) != 2 {
		t.Fatalf("final: state=%s results=%d err=%q", final.State, len(final.Results), final.Error)
	}
	for _, r := range final.Results {
		if r.Result == nil || r.Fingerprint == "" || len(r.Key) != 64 {
			t.Errorf("incomplete result: %+v", r.SpecMeta)
		}
		if r.Result.Counts.Total == 0 {
			t.Errorf("%s: empty result", r.Scheme)
		}
	}

	// An identical sweep from another tenant dedups: 200, same ID, no new
	// computation.
	sims := svc.Engine().Stats().SimsRun
	resp2, body2 := postSpec(t, ts.URL, "team-b", smallSpec(0))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("dedup POST status %d: %s", resp2.StatusCode, body2)
	}
	var st2 ExperimentStatus
	json.Unmarshal(body2, &st2)
	if st2.ID != st.ID {
		t.Errorf("dedup returned different experiment %s", st2.ID)
	}
	if got := svc.Engine().Stats().SimsRun; got != sims {
		t.Errorf("dedup recomputed: SimsRun %d -> %d", sims, got)
	}
}

func TestSubmitValidation(t *testing.T) {
	svc := newTestService(t, Config{})
	svc.Start()
	defer svc.Drain(context.Background())
	ts := startHTTP(t, svc)

	for name, spec := range map[string]Spec{
		"no schemes":    {Workloads: []WorkloadSpec{{Name: "pops", CPUs: []int{4}, Refs: 100}}},
		"bad scheme":    {Schemes: []string{"NoSuch"}, Workloads: []WorkloadSpec{{Name: "pops", CPUs: []int{4}, Refs: 100}}},
		"bad workload":  {Schemes: []string{"Dir0B"}, Workloads: []WorkloadSpec{{Name: "nope", CPUs: []int{4}, Refs: 100}}},
		"no cpus":       {Schemes: []string{"Dir0B"}, Workloads: []WorkloadSpec{{Name: "pops", Refs: 100}}},
		"bad block":     {Schemes: []string{"Dir0B"}, Workloads: []WorkloadSpec{{Name: "pops", CPUs: []int{4}, Refs: 100}}, BlockBytes: 24},
		"neg block":     {Schemes: []string{"Dir0B"}, Workloads: []WorkloadSpec{{Name: "pops", CPUs: []int{4}, Refs: 100}}, BlockBytes: -64},
		"seeded kernel": {Schemes: []string{"Dir0B"}, Workloads: []WorkloadSpec{{Name: "pingpong", CPUs: []int{2}, Refs: 100, Seed: 3}}},
	} {
		resp, body := postSpec(t, ts.URL, "t", spec)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d: %s", name, resp.StatusCode, body)
		}
	}
	if n := svc.Engine().Stats().TracesGenerated; n != 0 {
		t.Errorf("rejected sweeps generated %d traces", n)
	}
	if resp := getJSON(t, ts.URL+"/api/v1/experiments/exp-nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing experiment status %d", resp.StatusCode)
	}
}

// TestBlockBytesPricedAtBlockSize: a sweep at block_bytes 64 reads the
// cycles/ref of the blocksize study's 64-byte row for Dir0B and Dragon —
// each paper trace rescaled to 64-byte blocks, every fill priced at 16
// words — not a 16-byte fill's price on 64-byte event counts.
func TestBlockBytesPricedAtBlockSize(t *testing.T) {
	svc := newTestService(t, Config{})
	svc.Start()
	defer svc.Drain(context.Background())
	ts := startHTTP(t, svc)
	const cpus, refs, size = 4, 20_000, 64
	schemes := []string{"Dir0B", "Dragon"}
	spec := Spec{Schemes: schemes, BlockBytes: size}
	for _, name := range []string{"pops", "thor", "pero"} {
		spec.Workloads = append(spec.Workloads, WorkloadSpec{Name: name, CPUs: []int{cpus}, Refs: refs})
	}
	_, body := postSpec(t, ts.URL, "t", spec)
	var st ExperimentStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, ts.URL, st.ID)
	if final.State != StateDone {
		t.Fatalf("state %s: %s", final.State, final.Error)
	}
	got := map[string][]*sim.Result{}
	for _, r := range final.Results {
		got[r.Scheme] = append(got[r.Scheme], r.Result)
	}
	for _, scheme := range schemes {
		var want []*sim.Result
		for _, cfg := range workload.StandardConfigs(cpus, refs) {
			p, err := core.NewByName(scheme, cpus)
			if err != nil {
				t.Fatal(err)
			}
			src, err := trace.WithBlockSize(workload.MustGenerate(cfg).Iterator(), size)
			if err != nil {
				t.Fatal(err)
			}
			r, err := sim.Simulate(p, src, sim.Options{Models: []bus.Model{bus.PipelinedWords(size / 4)}})
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, r)
		}
		g, err := sim.Merge(got[scheme]...)
		if err != nil {
			t.Fatal(err)
		}
		w, err := sim.Merge(want...)
		if err != nil {
			t.Fatal(err)
		}
		if g.PerRef("pipelined") != w.PerRef("pipelined") {
			t.Errorf("%s at %d-byte blocks: sweep reads %.4f cycles/ref, the blocksize study %.4f",
				scheme, size, g.PerRef("pipelined"), w.PerRef("pipelined"))
		}
	}
}

// TestQuotaRejectsWhileOtherTenantsProceed is the acceptance criterion:
// with a per-tenant quota of 1, a tenant's second distinct sweep is
// rejected 429 with Retry-After while another tenant's sweep is admitted
// and completes. The service is started only after admission decisions
// are made, so queue occupancy is deterministic.
func TestQuotaRejectsWhileOtherTenantsProceed(t *testing.T) {
	svc := newTestService(t, Config{Quota: 1, MaxInflight: 1})
	ts := startHTTP(t, svc)

	resp1, body1 := postSpec(t, ts.URL, "team-a", smallSpec(1))
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("first POST status %d: %s", resp1.StatusCode, body1)
	}
	var first ExperimentStatus
	json.Unmarshal(body1, &first)

	// Same tenant, different content: over quota.
	resp2, body2 := postSpec(t, ts.URL, "team-a", smallSpec(2))
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota POST status %d, want 429: %s", resp2.StatusCode, body2)
	}
	if ra := resp2.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	}
	if !strings.Contains(string(body2), "quota") {
		t.Errorf("429 body does not explain quota: %s", body2)
	}

	// A different tenant proceeds.
	resp3, body3 := postSpec(t, ts.URL, "team-b", smallSpec(3))
	if resp3.StatusCode != http.StatusAccepted {
		t.Fatalf("other-tenant POST status %d, want 202: %s", resp3.StatusCode, body3)
	}
	var other ExperimentStatus
	json.Unmarshal(body3, &other)

	// Both admitted experiments complete once workers start.
	svc.Start()
	defer svc.Drain(context.Background())
	if st := waitDone(t, ts.URL, first.ID); st.State != StateDone {
		t.Errorf("team-a experiment: %s (%s)", st.State, st.Error)
	}
	if st := waitDone(t, ts.URL, other.ID); st.State != StateDone {
		t.Errorf("team-b experiment: %s (%s)", st.State, st.Error)
	}

	// With the quota released, team-a can submit again.
	resp4, body4 := postSpec(t, ts.URL, "team-a", smallSpec(2))
	if resp4.StatusCode != http.StatusAccepted {
		t.Errorf("post-release POST status %d: %s", resp4.StatusCode, body4)
	}
	var again ExperimentStatus
	json.Unmarshal(body4, &again)
	waitDone(t, ts.URL, again.ID)
}

// TestQueueSaturationReturns503: when the queue bound (not the quota) is
// the binding constraint, the rejection is 503.
func TestQueueSaturationReturns503(t *testing.T) {
	svc := newTestService(t, Config{MaxQueue: 1})
	ts := startHTTP(t, svc)
	if resp, body := postSpec(t, ts.URL, "a", smallSpec(1)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first POST: %d %s", resp.StatusCode, body)
	}
	resp, _ := postSpec(t, ts.URL, "b", smallSpec(2))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated POST status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	svc.Start()
	svc.Drain(context.Background())
}

// TestSharedStoreServesSecondService: two services over one store
// directory — a fresh service must serve the sweep from disk,
// fingerprint-validated, bit-identical, without simulating.
func TestSharedStoreServesSecondService(t *testing.T) {
	dir := t.TempDir()
	open := func() *store.Store {
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	svc1 := newTestService(t, Config{Store: open(), Verify: true})
	svc1.Start()
	ts1 := startHTTP(t, svc1)
	_, body := postSpec(t, ts1.URL, "a", smallSpec(0))
	var st ExperimentStatus
	json.Unmarshal(body, &st)
	cold := waitDone(t, ts1.URL, st.ID)
	if cold.State != StateDone {
		t.Fatalf("cold run failed: %s", cold.Error)
	}
	svc1.Drain(context.Background())

	svc2 := newTestService(t, Config{Store: open(), Verify: true})
	svc2.Start()
	defer svc2.Drain(context.Background())
	ts2 := startHTTP(t, svc2)
	_, body2 := postSpec(t, ts2.URL, "b", smallSpec(0))
	var st2 ExperimentStatus
	json.Unmarshal(body2, &st2)
	warm := waitDone(t, ts2.URL, st2.ID)
	if warm.State != StateDone {
		t.Fatalf("warm run failed: %s", warm.Error)
	}
	if got := svc2.Engine().Stats().SimsRun; got != 0 {
		t.Errorf("warm service simulated %d times, want 0", got)
	}
	a, _ := json.Marshal(cold.Results)
	b, _ := json.Marshal(warm.Results)
	if !bytes.Equal(a, b) {
		t.Error("store-served results are not bit-identical to the cold run")
	}

	// The cold sweep journals its trace job too. The warm one journals
	// one job per spec and no trace job — Dir1NB's keyed job, and Dir0B's
	// family walk job of one, whose body runs and finds its result in the
	// store — and exactly one store.load per spec, a hit.
	engineLines := func(svc *Service, id string) (byJob, byKey map[string][]string) {
		exp, _ := svc.Get(id)
		byJob, byKey = map[string][]string{}, map[string][]string{}
		for _, line := range history(exp) {
			var l struct {
				Msg, Key, Job string
				Hit           bool
			}
			json.Unmarshal([]byte(line), &l)
			switch {
			case strings.HasPrefix(l.Msg, "job."):
				byJob[l.Job] = append(byJob[l.Job], l.Msg)
			case strings.HasPrefix(l.Msg, "store."):
				if l.Msg == "store.load" && !l.Hit {
					l.Msg += ".miss"
				}
				byKey[l.Key] = append(byKey[l.Key], l.Msg)
			}
		}
		return byJob, byKey
	}
	if got, _ := engineLines(svc1, st.ID); len(got["trace:pops"]) != 4 {
		t.Errorf("cold sweep's trace job lines = %v, want scheduled/start/attempt/finish", got["trace:pops"])
	}
	warmJobs, warmKeys := engineLines(svc2, st2.ID)
	want := map[string]string{
		"sim:Dir0B@pops":  "job.scheduled job.start job.attempt job.finish",
		"sim:Dir1NB@pops": "job.scheduled job.start job.finish",
	}
	if len(warmJobs) != len(want) || len(warmKeys) != len(warm.Results) {
		t.Errorf("warm sweep journaled jobs %v and store keys %v, want one of each per spec", warmJobs, warmKeys)
	}
	for id, msgs := range warmJobs {
		if strings.Join(msgs, " ") != want[id] {
			t.Errorf("warm sweep lines for %s = %v, want %s", id, msgs, want[id])
		}
	}
	for k, msgs := range warmKeys {
		if strings.Join(msgs, " ") != "store.load" {
			t.Errorf("warm sweep store lines for %s = %v, want one hit", k, msgs)
		}
	}
}

// TestEventsStreamOverSSE: the events endpoint replays the journal and
// streams to the end frame; lifecycle and job events are present.
func TestEventsStreamOverSSE(t *testing.T) {
	svc := newTestService(t, Config{Verify: true})
	svc.Start()
	defer svc.Drain(context.Background())
	ts := startHTTP(t, svc)

	_, body := postSpec(t, ts.URL, "a", smallSpec(0))
	var st ExperimentStatus
	json.Unmarshal(body, &st)

	resp, err := http.Get(ts.URL + "/api/v1/experiments/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var events []string
	ended := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "event: end" {
			ended = true
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && data != "{}" {
			var ev struct {
				Msg string `json:"msg"`
			}
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatalf("non-JSON SSE data %q: %v", data, err)
			}
			events = append(events, ev.Msg)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !ended {
		t.Error("stream ended without the end frame")
	}
	want := map[string]bool{"experiment.queued": false, "experiment.start": false,
		"experiment.result": false, "experiment.finish": false, "job.finish": false}
	for _, ev := range events {
		if _, ok := want[ev]; ok {
			want[ev] = true
		}
	}
	for ev, seen := range want {
		if !seen {
			t.Errorf("SSE stream missing %s event (got %v)", ev, events)
		}
	}
}

// TestDrainRefusesAndFinishes: Drain aborts queued work, refuses new
// work with 503, flips /healthz, and leaves no goroutines behind.
func TestDrainRefusesAndFinishes(t *testing.T) {
	snap := faults.Goroutines()
	svc := newTestService(t, Config{})
	ts := startHTTP(t, svc)

	// Queued before Start: aborted by drain, its SSE stream closes.
	_, body := postSpec(t, ts.URL, "a", smallSpec(1))
	var st ExperimentStatus
	json.Unmarshal(body, &st)

	svc.Start() // the worker may pick it up before Drain or not: both are fine
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	final := waitDone(t, ts.URL, st.ID)
	if final.State != StateDone && final.State != StateAborted {
		t.Errorf("drained experiment state %q", final.State)
	}

	resp, _ := postSpec(t, ts.URL, "a", smallSpec(2))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain POST status %d, want 503", resp.StatusCode)
	}
	var h struct {
		Status string `json:"status"`
	}
	if resp := getJSON(t, ts.URL+"/healthz", &h); resp.StatusCode != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Errorf("healthz after drain: %d %q", resp.StatusCode, h.Status)
	}

	ts.Close()
	if err := snap.Leaked(5 * time.Second); err != nil {
		t.Errorf("drain leaked goroutines: %v", err)
	}
}

// TestHealthAndStoreEndpoints covers the small read-only endpoints.
func TestHealthAndStoreEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	st, err := store.Open(t.TempDir(), store.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	svc := newTestService(t, Config{Store: st, Metrics: reg, Discipline: "priority"})
	svc.Start()
	defer svc.Drain(context.Background())
	ts := startHTTP(t, svc)

	var h struct {
		Status     string `json:"status"`
		Discipline string `json:"discipline"`
	}
	if resp := getJSON(t, ts.URL+"/healthz", &h); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
	if h.Status != "ok" || h.Discipline != "priority" {
		t.Errorf("healthz = %+v", h)
	}
	var ss storeStatus
	getJSON(t, ts.URL+"/api/v1/store", &ss)
	if !ss.Enabled || ss.Stats == nil {
		t.Errorf("store status = %+v", ss)
	}
	var list struct {
		Experiments []ExperimentStatus `json:"experiments"`
	}
	getJSON(t, ts.URL+"/api/v1/experiments", &list)
	if len(list.Experiments) != 0 {
		t.Errorf("fresh service lists %d experiments", len(list.Experiments))
	}
	// Metrics exposition includes the service family.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	for _, want := range []string{"service_admission_depth", "store_hits", "engine_jobs_run"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestRejectedSubmissionLeavesOthersAlone: while a submission waits for
// admission, another is accepted and a duplicate joins it. When
// admission then refuses it, only the refused experiment leaves the
// listing, and the duplicate holds a failed experiment that says why,
// not one that reads queued forever.
func TestRejectedSubmissionLeavesOthersAlone(t *testing.T) {
	svc := newTestService(t, Config{Quota: 1})
	ts := startHTTP(t, svc)
	ctx := context.Background()
	first, _, err := svc.Submit(ctx, "a", smallSpec(1))
	if err != nil {
		t.Fatal(err)
	}

	var other, joined *Experiment
	svc.beforeAdmit = func() {
		svc.beforeAdmit = nil
		var err error
		if other, _, err = svc.Submit(ctx, "b", smallSpec(3)); err != nil {
			t.Errorf("other tenant's submission: %v", err)
		}
		if joined, _, err = svc.Submit(ctx, "c", smallSpec(2)); err != nil {
			t.Errorf("duplicate submission: %v", err)
		}
	}
	if _, _, err := svc.Submit(ctx, "a", smallSpec(2)); !errors.Is(err, ErrQuota) {
		t.Fatalf("over-quota submission: %v, want ErrQuota", err)
	}
	if other == nil || joined == nil {
		t.Fatal("the seam did not run")
	}

	var list struct {
		Experiments []ExperimentStatus `json:"experiments"`
	}
	getJSON(t, ts.URL+"/api/v1/experiments", &list)
	var ids []string
	for _, e := range list.Experiments {
		ids = append(ids, e.ID)
	}
	if want := []string{first.ID, other.ID}; !slices.Equal(ids, want) {
		t.Errorf("listed %v, want %v", ids, want)
	}
	if st := svc.status(joined, false); st.State != StateFailed || !strings.Contains(st.Error, "quota") {
		t.Errorf("the duplicate's experiment is %s (%q), want failed by the quota", st.State, st.Error)
	}
	history(joined) // its record is closed

	svc.Start()
	svc.Drain(ctx)
}
