// Package dist shards the engine's simulation work across processes,
// engineered around failure as the common case. A Coordinator implements
// engine.Remote: every simulation spec that misses all cache tiers is
// queued, leased to a pulling worker (cmd/dirsimw) over HTTP, executed
// there through the worker's own engine, and pushed back as a
// fingerprint-stamped result which the coordinator revalidates before
// accepting. A worker can crash, stall, lie, or return corrupt
// bytes and the sweep still completes bit-identical to a purely local
// run, because every failure converts into one of three disciplined
// outcomes:
//
//   - requeue: the job goes back to the queue for another worker (lease
//     expiry, rejected fingerprint, transport failure), bounded by
//     maxAttempts;
//   - degrade: remote execution is abandoned for this job — the
//     coordinator's engine falls back to local computation via
//     engine.ErrRemoteUnavailable (attempts exhausted, fleet drained or
//     unreachable);
//   - fail: the worker delivered a structured execution error
//     (engine.JobError); simulations are deterministic,
//     so the failure is terminal and surfaces to the caller with the
//     worker's stack intact rather than burning a local retry.
//
// Robustness machinery: per-job leases with heartbeat renewal and
// expiry-driven reassignment, hedged re-dispatch of stragglers (first
// valid fingerprint wins, later duplicates discarded deterministically),
// per-worker circuit breaking (repeated failures open the breaker; lease
// requests get 429 + Retry-After until a half-open probe succeeds), and
// transport fault injection for all of it (faults.Config's transport
// class driving a FaultTransport RoundTripper), so the whole ladder is
// exercised deterministically in the soak test.
//
// The trust model matches the store's: acceptance means the pushed bytes
// decode to a result whose recomputed Fingerprint equals the stamped one
// — corruption anywhere in transit is caught; a worker that fabricates a
// consistent envelope is outside the threat model, exactly as a process
// scribbling valid JSON into the store directory would be.
package dist

import (
	"encoding/json"
	"hash/fnv"
	"strconv"
	"time"

	"dirsim/internal/engine"
	"dirsim/internal/sim"
)

// Default tuning, overridable via Options.
const (
	DefaultLeaseTTL     = 10 * time.Second
	DefaultHedgeAfter   = 30 * time.Second
	DefaultDegradeAfter = 20 * time.Second
)

// The ladder's fixed rungs. A worker's circuit breaker stays open for
// 3·LeaseTTL/2 (15 s at the default TTL) before a half-open probe, and
// the lease-expiry sweep runs every LeaseTTL/4: both scale with the one
// time scale Options sets.
const (
	// maxAttempts bounds transport-class failures per job (lease
	// expiries, rejected results); at the bound the job degrades to local
	// execution via engine.ErrRemoteUnavailable.
	maxAttempts = 3
	// breakerThreshold consecutive failures open a worker's breaker.
	breakerThreshold = 3
	// maxLeases caps concurrent leases per job: the primary plus one
	// hedge.
	maxLeases = 2
)

// JobSpec is one leased unit of work as it travels to a worker: the
// content key the result will be cached under, the full simulation spec
// (workers regenerate the workload from it — traces never travel), the
// lease identity to heartbeat and push under, and the trace context the
// originating request runs under, which the worker adopts so journal
// lines on both sides of the wire share one trace ID.
type JobSpec struct {
	Key   string         `json:"key"`
	Spec  engine.SimSpec `json:"spec"`
	Lease string         `json:"lease"`
	// TTLMS is the lease's time-to-live in milliseconds; the worker must
	// heartbeat well inside it (TTL/3 is the convention) or the
	// coordinator reassigns the job.
	TTLMS int64 `json:"ttl_ms"`
	// Trace is the originating request's trace context in
	// obs.TraceContext wire form. When the coordinator traces, it reads
	// "<trace>//<parent>": parent is the ID of the lease's dist:lease
	// span, which the worker's job spans journal as their pspan, so its
	// shipped lines nest under the lease in the request's record.
	Trace string `json:"trace,omitempty"`
}

// TTL returns the lease TTL as a duration.
func (j JobSpec) TTL() time.Duration { return time.Duration(j.TTLMS) * time.Millisecond }

// leaseRequest is a worker's pull for work. Version is the worker
// binary's build identity (obs.Build), stamped into the coordinator's
// worker.join event and per-worker stats. WaitMS (the worker's Poll) is
// how long the coordinator may hold the request when it has nothing to
// grant; absent — an older worker — or not positive means not at all.
type leaseRequest struct {
	Worker  string `json:"worker"`
	Version string `json:"version,omitempty"`
	WaitMS  int64  `json:"wait_ms,omitempty"`
}

// leaseResponse carries the leased job; Job is nil when the coordinator
// has no work (the worker idles out what is left of its Poll after
// HeldUS, the time the request spent parked). Siblings are the queued
// tasks one engine call submitted with Job's (a family walk's members),
// each with its own key, lease and trace context; the worker runs them
// all as one batch. A hedge, and a reply from an older coordinator,
// carries none. NowUnixNS is the coordinator's wall
// clock at response time — one sample for the worker's clock-skew
// estimator, which leaves HeldUS out of the round trip.
type leaseResponse struct {
	Job       *JobSpec   `json:"job,omitempty"`
	Siblings  []*JobSpec `json:"siblings,omitempty"`
	NowUnixNS int64      `json:"now_unix_ns,omitempty"`
	HeldUS    int64      `json:"held_us,omitempty"`
}

// jobs returns the reply's leased jobs, Job first; none without a Job,
// and never a null sibling.
func (r *leaseResponse) jobs() []*JobSpec {
	if r.Job == nil {
		return nil
	}
	jobs := []*JobSpec{r.Job}
	for _, s := range r.Siblings {
		if s != nil {
			jobs = append(jobs, s)
		}
	}
	return jobs
}

// heartbeatRequest renews a lease. Counters, when present, is a
// snapshot of the worker's metric registry (dist.* and engine counters)
// — the federation path: the coordinator keeps the latest snapshot per
// worker and exposes it on /api/v1/dist/stats.
type heartbeatRequest struct {
	Worker   string           `json:"worker"`
	Lease    string           `json:"lease"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// heartbeatResponse carries the coordinator's clock for skew estimation.
type heartbeatResponse struct {
	NowUnixNS int64 `json:"now_unix_ns,omitempty"`
}

// resultPush is a worker's completion report: exactly one of Result or
// Error is set. Fingerprint stamps the result (hex, "0x..." form like the
// store envelope); the coordinator recomputes it from the decoded result
// and rejects on mismatch. A worker's spans never ride here: they reach
// the coordinator as shipped journal lines (journalBatch).
type resultPush struct {
	Worker      string      `json:"worker"`
	Lease       string      `json:"lease"`
	Key         string      `json:"key"`
	Fingerprint string      `json:"fingerprint,omitempty"`
	Result      *sim.Result `json:"result,omitempty"`
	Error       *WireError  `json:"error,omitempty"`
}

// journalBatch is one shipment of worker journal lines to
// POST /api/v1/dist/journal. Lines are complete slog JSONL objects,
// shipped verbatim; the coordinator splices `"worker"` and `"skew_ns"`
// attributes into each before appending it to the fleet journal.
// Dropped is the shipper's cumulative drop count (lines lost to a full
// buffer), cumulative so a lost batch cannot lose the loss report too.
// Sum is linesSum(Lines): a byte flipped in flight can leave a line valid
// JSON — a hex digit of a span ID — so only the sum tells the
// coordinator the batch is not what the worker sent. A batch without
// one, like one whose sum does not match, is refused whole.
type journalBatch struct {
	Worker  string            `json:"worker"`
	SkewNS  int64             `json:"skew_ns"`
	Dropped int64             `json:"dropped,omitempty"`
	Lines   []json.RawMessage `json:"lines"`
	Sum     string            `json:"sum,omitempty"`
}

// linesSum is the checksum a journalBatch carries: FNV-1a over its
// lines, each ended by a newline, in hex.
func linesSum(lines []json.RawMessage) string {
	h := fnv.New64a()
	for _, l := range lines {
		h.Write(l)
		h.Write([]byte{'\n'})
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// journalAccept acknowledges a shipped batch.
type journalAccept struct {
	Accepted int `json:"accepted"`
}
