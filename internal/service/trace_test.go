package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"dirsim/internal/obs/httpmon"
	"dirsim/internal/store"
)

// postSpecTraced is postSpec with an explicit X-Dirsim-Trace header.
func postSpecTraced(t *testing.T, url, tenant, traceID string, spec Spec) (*http.Response, []byte) {
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
	if traceID != "" {
		req.Header.Set(httpmon.TraceHeader, traceID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// TestResponsesCarryTraceHeader: every API response carries X-Dirsim-
// Trace — minted when the caller sent none, echoed when they did — and
// the submitted experiment adopts the caller's trace as its own.
func TestResponsesCarryTraceHeader(t *testing.T) {
	svc := newTestService(t, Config{})
	svc.Start()
	defer svc.Drain(context.Background())
	ts := startHTTP(t, svc)

	// No inbound header: the service mints one.
	resp, body := postSpec(t, ts.URL, "team-a", smallSpec(10))
	minted := resp.Header.Get(httpmon.TraceHeader)
	if minted == "" {
		t.Fatal("submit response missing X-Dirsim-Trace")
	}
	var st ExperimentStatus
	json.Unmarshal(body, &st)
	if st.Trace != minted {
		t.Errorf("experiment trace %q != response header %q", st.Trace, minted)
	}

	// Caller-supplied header: echoed back and adopted by the experiment.
	resp2, body2 := postSpecTraced(t, ts.URL, "team-a", "my-run-7", smallSpec(11))
	if got := resp2.Header.Get(httpmon.TraceHeader); got != "my-run-7" {
		t.Errorf("echoed trace = %q, want my-run-7", got)
	}
	var st2 ExperimentStatus
	json.Unmarshal(body2, &st2)
	if st2.Trace != "my-run-7" {
		t.Errorf("experiment did not adopt the caller's trace: %q", st2.Trace)
	}

	// Plain GETs carry one too.
	if resp := getJSON(t, ts.URL+"/api/v1/experiments", nil); resp.Header.Get(httpmon.TraceHeader) == "" {
		t.Error("list response missing X-Dirsim-Trace")
	}
	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.Header.Get(httpmon.TraceHeader) == "" {
		t.Error("healthz response missing X-Dirsim-Trace")
	}

	// A deduplicated submission keeps the ORIGINAL experiment's trace in
	// the body (the journal is tagged with it) while the response header
	// names the attaching request's own trace.
	waitDone(t, ts.URL, st.ID)
	resp3, body3 := postSpecTraced(t, ts.URL, "team-b", "attacher", smallSpec(10))
	var st3 ExperimentStatus
	json.Unmarshal(body3, &st3)
	if st3.ID != st.ID || st3.Trace != minted {
		t.Errorf("dedup changed the experiment trace: %+v", st3)
	}
	if got := resp3.Header.Get(httpmon.TraceHeader); got != "attacher" {
		t.Errorf("dedup response header = %q, want the attacher's trace", got)
	}
}

// chromeExport is the subset of the Chrome trace format the trace
// endpoint test inspects.
type chromeExport struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		ID   uint64         `json:"id"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// TestTraceEndpointExportsHierarchy: the trace endpoint returns Chrome
// trace JSON whose request root span parents the admission wait, and
// whose engine job and store spans belong to the same export — the
// end-to-end hierarchy the tentpole promises.
func TestTraceEndpointExportsHierarchy(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc := newTestService(t, Config{Store: st})
	svc.Start()
	defer svc.Drain(context.Background())
	ts := startHTTP(t, svc)

	resp, body := postSpecTraced(t, ts.URL, "team-a", "trace-e2e", smallSpec(20))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status %d: %s", resp.StatusCode, body)
	}
	var sub ExperimentStatus
	json.Unmarshal(body, &sub)
	waitDone(t, ts.URL, sub.ID)

	httpResp, err := http.Get(ts.URL + "/api/v1/experiments/" + sub.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("trace endpoint status %d", httpResp.StatusCode)
	}
	if ct := httpResp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var export chromeExport
	if err := json.NewDecoder(httpResp.Body).Decode(&export); err != nil {
		t.Fatalf("trace endpoint is not Chrome trace JSON: %v", err)
	}

	var requestID uint64
	cats := map[string]int{}
	for _, ev := range export.TraceEvents {
		cats[ev.Cat]++
		if ev.Cat == "experiment" && ev.Name == "experiment:"+sub.ID {
			requestID = ev.ID
			if ev.Args["trace"] != "trace-e2e" || ev.Args["tenant"] != "team-a" {
				t.Errorf("request span args wrong: %v", ev.Args)
			}
		}
	}
	if requestID == 0 {
		t.Fatalf("no request root span in export; categories: %v", cats)
	}
	for _, want := range []string{"admission", "job", "sim", "store"} {
		if cats[want] == 0 {
			t.Errorf("export has no %q spans; categories: %v", want, cats)
		}
	}
	// The admission wait parents directly under the request root.
	foundAdm := false
	for _, ev := range export.TraceEvents {
		if ev.Cat == "admission" {
			foundAdm = true
			if parent, _ := ev.Args["parent"].(float64); uint64(parent) != requestID {
				t.Errorf("admission span parent = %v, want request %d", ev.Args["parent"], requestID)
			}
			if _, ok := ev.Args["wait_us"]; !ok {
				t.Errorf("admission span missing wait_us: %v", ev.Args)
			}
		}
	}
	if !foundAdm {
		t.Error("no admission span")
	}
}

// TestTraceEndpointConflictsWhileUnfinished: a queued experiment's trace
// is not exportable yet — the endpoint says 409 + Retry-After instead of
// blocking on the worker's held lanes. The service is never started, so
// the experiment deterministically stays queued.
func TestTraceEndpointConflictsWhileUnfinished(t *testing.T) {
	svc := newTestService(t, Config{MaxInflight: 1})
	ts := startHTTP(t, svc)

	resp, body := postSpec(t, ts.URL, "team-a", smallSpec(30))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status %d: %s", resp.StatusCode, body)
	}
	var sub ExperimentStatus
	json.Unmarshal(body, &sub)

	httpResp, err := http.Get(ts.URL + "/api/v1/experiments/" + sub.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusConflict {
		t.Fatalf("trace of queued experiment: status %d, want 409", httpResp.StatusCode)
	}
	if httpResp.Header.Get("Retry-After") == "" {
		t.Error("409 without Retry-After")
	}
	svc.Drain(context.Background())
}

// TestPerTenantREDMetrics: per-route and per-tenant request counts and
// latency histograms appear on /metrics after traffic.
func TestPerTenantREDMetrics(t *testing.T) {
	svc := newTestService(t, Config{})
	svc.Start()
	defer svc.Drain(context.Background())
	ts := startHTTP(t, svc)

	resp, body := postSpec(t, ts.URL, "team-red", smallSpec(40))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status %d: %s", resp.StatusCode, body)
	}
	var sub ExperimentStatus
	json.Unmarshal(body, &sub)
	waitDone(t, ts.URL, sub.ID)

	mResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mResp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(mResp.Body)
	metrics := buf.String()
	for _, want := range []string{
		"http_route_experiments_submit_requests 1",
		"http_tenant_team_red_requests 1",
		"http_route_experiments_get_requests",
		"http_route_experiments_submit_latency_us_count 1",
		"service_admission_wait_fcfs_us_count 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestAdmissionWaitJournaled: the experiment's journal records the
// admission wait and discipline before the run starts.
func TestAdmissionWaitJournaled(t *testing.T) {
	svc := newTestService(t, Config{})
	svc.Start()
	defer svc.Drain(context.Background())
	ts := startHTTP(t, svc)

	resp, body := postSpecTraced(t, ts.URL, "team-a", "adm-run", smallSpec(50))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status %d: %s", resp.StatusCode, body)
	}
	var sub ExperimentStatus
	json.Unmarshal(body, &sub)
	waitDone(t, ts.URL, sub.ID)

	exp, ok := svc.Get(sub.ID)
	if !ok {
		t.Fatal("experiment vanished")
	}
	if exp.tc.Trace != "adm-run" {
		t.Errorf("Experiment.Trace() = %q", exp.tc.Trace)
	}
	sawAdmission := false
	for _, line := range history(exp) {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("journal line not JSON: %s", line)
		}
		if ev["trace"] != "adm-run" {
			t.Errorf("journal line missing trace tag: %s", line)
		}
		if ev["msg"] == "admission.done" {
			sawAdmission = true
			if _, ok := ev["wait_us"]; !ok {
				t.Errorf("admission.done missing wait_us: %s", line)
			}
			if ev["discipline"] != "fcfs" {
				t.Errorf("admission.done discipline = %v", ev["discipline"])
			}
		}
	}
	if !sawAdmission {
		t.Error("journal has no admission.done event")
	}
}
