package engine

import (
	"context"
	"errors"

	"dirsim/internal/obs"
	"dirsim/internal/sim"
	"dirsim/internal/trace"
)

// Remote executes simulation specs somewhere else — typically a
// coordinator fanning them out to a worker fleet (internal/dist). The
// engine stays the single owner of caching and planning: only specs that
// missed every cache tier are offered to the Remote, and an accepted
// result enters the caches exactly like a locally computed one. One call
// carries the specs one walk job computes: a family walk's members, or
// the one spec no family walk prices.
//
// The contract is strict so the engine can trust what comes back:
//
//   - SimulateRemote returns one result or error per spec, in order, and
//     each is that member's own. A result must be bit-identical to what
//     the local engine would compute — implementations revalidate its
//     Fingerprint before returning it.
//   - ErrRemoteUnavailable (possibly wrapped) means remote execution is
//     not currently possible — fleet unreachable, drained, or out of
//     attempts on transport-class failures. The engine then computes
//     locally, in one walk for all such members; the sweep completes.
//   - Any other error is a structured execution failure: the simulation
//     itself failed and would fail identically locally (simulations are
//     deterministic), so the engine surfaces it instead of burning a
//     local retry.
//
// Implementations must be safe for concurrent use: under either
// executor a job blocked in SimulateRemote holds no worker slot, so every
// uncached job of a batch is in flight at once, for the Remote to order.
// An attempt's JobTimeout clock therefore covers a spec's queueing in the
// fleet as well as its execution; no binary sets both.
type Remote interface {
	SimulateRemote(ctx context.Context, specs []SimSpec) ([]*sim.Result, []error)
}

// ErrRemoteUnavailable is the sentinel a Remote returns (wrapped is fine)
// when remote execution cannot be had right now. It converts a remote
// dispatch into a local fallback rather than a failure.
var ErrRemoteUnavailable = errors.New("remote execution unavailable")

// compute computes specs, which share a trace, a filter and a block size,
// and returns each one's result or error. Without a Remote it walks them
// once over t, or over Engine.Trace's trace when t is nil. With one it
// offers them in one call, holding no slot (workers regenerate the
// workload: no trace is made here); members that come back unavailable
// are walked locally together, over the trace Engine.Trace returns, on a
// slot taken once the trace is had, so Workers still bounds local CPU
// work.
func (e *Engine) compute(ctx context.Context, specs []SimSpec, t *trace.Trace) ([]*sim.Result, []error) {
	rs, errs := make([]*sim.Result, len(specs)), make([]error, len(specs))
	if e.remote != nil {
		rs, errs = e.remote.SimulateRemote(ctx, specs)
	}
	var local []int
	for i, err := range errs {
		switch {
		case e.remote == nil:
			local = append(local, i)
		case err == nil:
			e.simsRemote.Add(1)
			e.simsRun.Add(1)
			e.refsSimulated.Add(rs[i].Counts.Total)
			rs[i].Trace = specs[i].Trace.Name
		case errors.Is(err, ErrRemoteUnavailable):
			e.remoteDegraded.Add(1)
			obs.Instant(ctx, "remote.degrade", nil, "error", err.Error())
			local = append(local, i)
		}
	}
	if len(local) == 0 {
		return rs, errs
	}
	walk := pick(specs, local)
	var err error
	if t == nil {
		t, err = e.Trace(ctx, walk[0].Trace)
	}
	var walked []*sim.Result
	if err == nil {
		ctx, release := acquireSlot(ctx)
		walked, err = e.simulate(ctx, walk, t)
		release()
	}
	for n, i := range local {
		if rs[i], errs[i] = nil, err; err == nil {
			rs[i] = walked[n]
		}
	}
	return rs, errs
}
