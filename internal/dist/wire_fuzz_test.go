package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"dirsim/internal/engine"
	"dirsim/internal/obs"
)

// The worker-to-coordinator bodies under fuzz: a result push, a heartbeat
// and a shipped journal batch, each driven through its handler with
// arbitrary bytes. The seed corpora (testdata/fuzz) hold one body of each
// kind: valid, wrong lease, wrong key, wrong fingerprint, wrong types,
// truncated, and so on. Every handler must answer a body it cannot decode
// with a 4xx and never panic. The one coordinator-to-worker body, the
// lease reply, is driven through the worker (FuzzLeaseResponse).

// leasedCoordinator returns a fresh coordinator whose one task,
// testSpec(0), is leased to worker w1 as lease L1: the state a push or a
// heartbeat from that worker meets. The seed corpora name that key and
// lease.
func leasedCoordinator(t *testing.T, opts Options) (*Coordinator, *JobSpec) {
	t.Helper()
	c := NewCoordinator(opts)
	t.Cleanup(c.Close) // degrades the task if it is still open, releasing submit's goroutine
	submit(c, testSpec(0))
	waitSubmitted(t, c, 1)
	return c, mustLease(t, c, "w1")
}

// postBody runs handler h on body, with no connection to lose.
func postBody(h http.HandlerFunc, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

func is4xx(code int) bool { return code >= 400 && code < 500 }

// FuzzResultPush: a push completes the leased task only when it decodes,
// names that task's key, carries a result, and that result's recomputed
// fingerprint equals the one it claims; every other push leaves
// Stats().JobsCompleted at zero. A push completes only the task whose
// key it names. A malformed body gets a 4xx.
func FuzzResultPush(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		c, job := leasedCoordinator(t, Options{})
		rec := postBody(c.handleResult, "/api/v1/dist/result", body)

		var p resultPush
		decoded := json.NewDecoder(bytes.NewReader(body)).Decode(&p) == nil
		if !decoded && !is4xx(rec.Code) {
			t.Fatalf("malformed body %q answered %d, want 4xx", body, rec.Code)
		}
		if c.Stats().JobsCompleted == 0 {
			return
		}
		if !decoded || p.Key != job.Key {
			t.Fatalf("body %q completed task %s, not the task it names", body, shortKey(job.Key))
		}
		claimed, err := strconv.ParseUint(p.Fingerprint, 0, 64)
		if p.Result == nil || err != nil || p.Result.Fingerprint() != claimed {
			t.Fatalf("body %q completed the task without a matching fingerprint", body)
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("body %q completed the task but answered %d", body, rec.Code)
		}
	})
}

// FuzzHeartbeat: a heartbeat renews the lease only when it names both the
// lease and the worker holding it (200); a decodable one that does not
// gets 410 and a malformed one a 4xx. No heartbeat settles a task.
func FuzzHeartbeat(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		c, job := leasedCoordinator(t, Options{})
		rec := postBody(c.handleHeartbeat, "/api/v1/dist/heartbeat", body)

		var req heartbeatRequest
		decoded := json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil
		want := http.StatusGone
		switch {
		case !decoded:
			if !is4xx(rec.Code) {
				t.Fatalf("malformed body %q answered %d, want 4xx", body, rec.Code)
			}
			want = rec.Code
		case req.Worker == "w1" && req.Lease == job.Lease:
			want = http.StatusOK
		}
		if rec.Code != want {
			t.Fatalf("body %q answered %d, want %d", body, rec.Code, want)
		}
		st := c.Stats()
		wantRenewed := int64(0)
		if rec.Code == http.StatusOK {
			wantRenewed = 1
		}
		if st.LeasesRenewed != wantRenewed {
			t.Fatalf("body %q answered %d with %d renewals", body, rec.Code, st.LeasesRenewed)
		}
		if st.JobsCompleted != 0 || st.JobsFailed != 0 || st.JobsDegraded != 0 {
			t.Fatalf("body %q settled the task: %+v", body, st)
		}
	})
}

// FuzzJournalBatch: a batch that decodes, names its worker and carries
// its lines' own sum (linesSum) is answered 200 with the count of lines
// spliced into the fleet journal; one whose sum is missing or does not
// match — a hex digit of a span ID flipped in flight — gets 422 and
// journals nothing; anything else gets a 4xx. Whatever the lines hold, the fleet
// journal stays JSONL: every record it receives is one line holding one
// JSON object.
func FuzzJournalBatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > maxJournalBatchBytes {
			t.Skip("past the handler's body limit")
		}
		var fleet bytes.Buffer
		c := NewCoordinator(Options{Journal: obs.NewJournal(&fleet)})
		defer c.Close()
		rec := postBody(c.handleJournal, "/api/v1/dist/journal", body)

		var b journalBatch
		if json.NewDecoder(bytes.NewReader(body)).Decode(&b) != nil || b.Worker == "" {
			if !is4xx(rec.Code) {
				t.Fatalf("body %q answered %d, want 4xx", body, rec.Code)
			}
			return
		}
		if b.Sum != linesSum(b.Lines) {
			if rec.Code != http.StatusUnprocessableEntity || fleet.Len() != 0 {
				t.Fatalf("body %q lacks or fails its sum but answered %d and journaled %q", body, rec.Code, fleet.Bytes())
			}
			return
		}
		var ack journalAccept
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &ack) != nil {
			t.Fatalf("body %q answered %d %s, want 200 and a count", body, rec.Code, rec.Body)
		}
		records := bytes.Split(bytes.TrimSuffix(fleet.Bytes(), []byte("\n")), []byte("\n"))
		for _, r := range records {
			var obj map[string]any
			if json.Unmarshal(r, &obj) != nil {
				t.Fatalf("body %q put a record that is not one JSON object on one line into the fleet journal: %q", body, r)
			}
		}
		// The fleet journal also holds the coordinator's worker.join line.
		if len(records) != ack.Accepted+1 {
			t.Fatalf("body %q: %d lines accepted, %d records journaled beside the join", body, ack.Accepted, len(records)-1)
		}
	})
}

// fuzzBudget bounds what one lease reply may make the worker simulate
// under fuzz: a reply past it is skipped, not run.
const (
	fuzzMaxJobs = 8
	fuzzMaxRefs = 20_000
)

// FuzzLeaseResponse drives a worker with arbitrary lease replies from a
// stand-in coordinator that answers every heartbeat and takes every push.
// Whatever a reply holds — one job or a group, null, corrupt or
// unrunnable members, siblings without a job — the worker never panics;
// it pushes only for a member whose spec hashes to its key, under that
// member's lease, with exactly one of a result (stamped with its own
// fingerprint) or an error; and every such member gets its push, whatever
// its siblings hold. The seed corpus (testdata/fuzz) holds grouped
// replies beside single ones.
func FuzzLeaseResponse(f *testing.F) {
	var mu sync.Mutex
	var reply []byte
	var pushes []resultPush
	coord := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		switch r.URL.Path {
		case "/api/v1/dist/lease":
			w.Header().Set("Content-Type", "application/json")
			w.Write(reply)
		case "/api/v1/dist/result":
			var p resultPush
			if json.NewDecoder(r.Body).Decode(&p) != nil {
				http.Error(w, "bad push", http.StatusBadRequest)
				return
			}
			pushes = append(pushes, p)
			w.Write([]byte("{}"))
		default:
			w.Write([]byte("{}"))
		}
	})
	// The worker reaches the stand-in in process, with no connection or
	// server goroutine whose timing the fuzzer would read as coverage.
	w := &Worker{Name: "w1", Engine: engine.New(engine.Options{}),
		Client: &Client{Base: "http://coordinator", HTTP: &http.Client{Transport: inProcess{coord}},
			Sleep: func(time.Duration) {}}}

	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > maxResponseBodyBytes {
			t.Skip("past the client's body limit")
		}
		var resp leaseResponse
		parsed := json.Unmarshal(body, &resp) == nil
		if parsed {
			if len(resp.Siblings) >= fuzzMaxJobs {
				t.Skip("past the fuzz budget")
			}
			for _, j := range resp.jobs() {
				if j.Spec.Trace.Refs > fuzzMaxRefs {
					t.Skip("past the fuzz budget")
				}
			}
		}
		mu.Lock()
		reply, pushes = body, nil
		mu.Unlock()

		ctx := context.Background()
		jobs, _, err := w.lease(ctx)
		if err == nil {
			if err := w.runJob(ctx, jobs...); err != nil {
				t.Fatalf("reply %q: runJob = %v", body, err)
			}
		}
		mu.Lock()
		defer mu.Unlock()
		if parsed != (err == nil) {
			t.Fatalf("reply %q: decodes %v, lease error %v", body, parsed, err)
		}
		if !parsed {
			if len(pushes) > 0 {
				t.Fatalf("reply %q does not decode, yet the worker pushed %d results", body, len(pushes))
			}
			return
		}
		runnable := map[[2]string]bool{}
		for _, j := range resp.jobs() {
			if engine.KeyHex(j.Spec.Key()) == j.Key {
				runnable[[2]string{j.Lease, j.Key}] = true
			}
		}
		pushed := map[[2]string]bool{}
		for _, p := range pushes {
			id := [2]string{p.Lease, p.Key}
			if !runnable[id] {
				t.Fatalf("reply %q: pushed for lease %q key %q, which no member with that spec holds", body, p.Lease, p.Key)
			}
			pushed[id] = true
			switch {
			case (p.Result == nil) == (p.Error == nil):
				t.Fatalf("reply %q: push for %q carries a result and an error, or neither", body, p.Lease)
			case p.Result != nil && p.Fingerprint != "0x"+strconv.FormatUint(p.Result.Fingerprint(), 16):
				t.Fatalf("reply %q: push for %q stamps %s, not its result's fingerprint", body, p.Lease, p.Fingerprint)
			}
		}
		for id := range runnable {
			if !pushed[id] {
				t.Fatalf("reply %q: member with lease %q key %q got no push", body, id[0], id[1])
			}
		}
	})
}

// inProcess is a RoundTripper that serves every request with its handler
// in the calling goroutine.
type inProcess struct{ h http.Handler }

func (p inProcess) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	p.h.ServeHTTP(rec, r)
	return rec.Result(), nil
}
