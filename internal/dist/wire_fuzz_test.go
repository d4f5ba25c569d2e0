package dist

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"dirsim/internal/obs"
)

// The worker-to-coordinator bodies under fuzz: a result push, a heartbeat
// and a shipped journal batch, each driven through its handler with
// arbitrary bytes. The seed corpora (testdata/fuzz) hold one body of each
// kind: valid, wrong lease, wrong key, wrong fingerprint, wrong types,
// truncated, and so on. Every handler must answer a body it cannot decode
// with a 4xx and never panic.

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
// no sum or its lines' own (linesSum) is answered 200 with the count of
// lines spliced into the fleet journal; one whose sum does not match —
// a hex digit of a span ID flipped in flight — gets 422 and journals
// nothing; anything else gets a 4xx. Whatever the lines hold, the fleet
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
		if b.Sum != "" && b.Sum != linesSum(b.Lines) {
			if rec.Code != http.StatusUnprocessableEntity || fleet.Len() != 0 {
				t.Fatalf("body %q fails its sum but answered %d and journaled %q", body, rec.Code, fleet.Bytes())
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
