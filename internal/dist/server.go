package dist

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"time"

	"dirsim/internal/obs/httpmon"
)

// WorkerHeader carries the worker's name on every fleet request, so the
// coordinator's per-route RED metrics break down per worker.
const WorkerHeader = "X-Dirsim-Worker"

// Register installs the coordinator's fleet API on mux:
//
//	POST /api/v1/dist/lease      pull a job (200 with job and its
//	                             queued group siblings; 200 with empty
//	                             body when idle, held up to wait_ms
//	                             first; 429+Retry-After when the
//	                             worker's breaker is open)
//	POST /api/v1/dist/heartbeat  renew a lease (410 when it is gone)
//	POST /api/v1/dist/result     push a result or structured error
//	                             (200 accepted, 410 duplicate/late,
//	                             422 failed revalidation)
//	POST /api/v1/dist/journal    ship a batch of worker journal lines
//	                             into the fleet journal (422 when its
//	                             sum is missing or wrong)
//	GET  /api/v1/dist/stats      coordinator counters + per-worker
//	                             breakdown
//
// Lease and heartbeat responses carry the coordinator's clock
// (now_unix_ns) for the workers' skew estimators.
//
// Every route is wrapped in httpmon.Instrument, so trace contexts
// propagate (X-Dirsim-Trace in, echoed back out) and per-route, per-
// worker RED metrics land on the coordinator's registry. The dist.lease
// route's latency now includes hold time: it reads as fleet idleness.
func Register(mux *http.ServeMux, c *Coordinator) {
	opts := httpmon.InstrumentOptions{
		Registry:      c.reg,
		TenantHeader:  WorkerHeader,
		DefaultTenant: "unnamed",
	}
	route := func(pattern, label string, h http.HandlerFunc) {
		mux.Handle(pattern, httpmon.Instrument(label, opts, h))
	}
	route("POST /api/v1/dist/lease", "dist.lease", c.handleLease)
	route("POST /api/v1/dist/heartbeat", "dist.heartbeat", c.handleHeartbeat)
	route("POST /api/v1/dist/result", "dist.result", c.handleResult)
	route("POST /api/v1/dist/journal", "dist.journal", c.handleJournal)
	route("GET /api/v1/dist/stats", "dist.stats", c.handleStats)
}

func decodeInto(w http.ResponseWriter, r *http.Request, v any, maxBytes int64) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBytes))
	if err := dec.Decode(v); err != nil {
		httpmon.WriteError(w, http.StatusBadRequest, "invalid request: %v", err)
		return false
	}
	return true
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !decodeInto(w, r, &req, 1<<16) {
		return
	}
	if req.Worker == "" {
		req.Worker = r.Header.Get(WorkerHeader)
	}
	if req.Worker == "" {
		httpmon.WriteError(w, http.StatusBadRequest, "missing worker name")
		return
	}
	// Only once the body is read out does the server watch the connection
	// for a client that went away, which a parked request must notice.
	io.Copy(io.Discard, r.Body)
	hold := time.Duration(min(req.WaitMS, maxLeaseHold.Milliseconds())) * time.Millisecond
	jobs, retryAfter, held := c.leaseWait(r.Context(), req.Worker, req.Version, hold)
	if retryAfter > 0 {
		secs := int(retryAfter.Seconds())
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		httpmon.WriteError(w, http.StatusTooManyRequests, "worker %s circuit open; retry after %ds", req.Worker, secs)
		return
	}
	resp := leaseResponse{NowUnixNS: c.opts.Clock().UnixNano(), HeldUS: held.Microseconds()}
	if len(jobs) > 0 {
		resp.Job, resp.Siblings = jobs[0], jobs[1:]
	}
	httpmon.WriteJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if !decodeInto(w, r, &req, 1<<20) {
		return
	}
	if !c.Heartbeat(req.Worker, req.Lease, req.Counters) {
		httpmon.WriteError(w, http.StatusGone, "lease %s is gone", req.Lease)
		return
	}
	httpmon.WriteJSON(w, http.StatusOK, heartbeatResponse{NowUnixNS: c.opts.Clock().UnixNano()})
}

// maxJournalBatchBytes bounds one shipped journal batch.
const maxJournalBatchBytes = 8 << 20

func (c *Coordinator) handleJournal(w http.ResponseWriter, r *http.Request) {
	var b journalBatch
	if !decodeInto(w, r, &b, maxJournalBatchBytes) {
		return
	}
	if b.Worker == "" {
		b.Worker = r.Header.Get(WorkerHeader)
	}
	if b.Worker == "" {
		httpmon.WriteError(w, http.StatusBadRequest, "missing worker name")
		return
	}
	if b.Sum != linesSum(b.Lines) {
		c.jnlRejected.Add(int64(len(b.Lines)))
		httpmon.WriteError(w, http.StatusUnprocessableEntity, "journal batch from %s fails its checksum", b.Worker)
		return
	}
	httpmon.WriteJSON(w, http.StatusOK, journalAccept{Accepted: c.AcceptJournal(&b)})
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var p resultPush
	if !decodeInto(w, r, &p, maxResponseBodyBytes) {
		return
	}
	switch c.Push(&p) {
	case PushAccepted:
		httpmon.WriteJSON(w, http.StatusOK, struct{}{})
	case PushDuplicate:
		httpmon.WriteError(w, http.StatusGone, "lease %s is gone; result discarded", p.Lease)
	case PushRejected:
		httpmon.WriteError(w, http.StatusUnprocessableEntity, "result for %s failed revalidation", shortKey(p.Key))
	}
}

func (c *Coordinator) handleStats(w http.ResponseWriter, _ *http.Request) {
	httpmon.WriteJSON(w, http.StatusOK, c.Stats())
}
