package engine

import (
	"context"
	"errors"

	"dirsim/internal/obs"
	"dirsim/internal/sim"
)

// Remote executes one simulation spec somewhere else — typically a
// coordinator fanning the spec out to a worker fleet (internal/dist). The
// engine stays the single owner of caching and planning: only specs that
// missed every cache tier are offered to the Remote, and an accepted
// result enters the caches exactly like a locally computed one.
//
// The contract is strict so the engine can trust what comes back:
//
//   - SimulateRemote must return a result bit-identical to what the
//     local engine would compute for spec — implementations revalidate
//     the result's Fingerprint before returning it.
//   - ErrRemoteUnavailable (possibly wrapped) means remote execution is
//     not currently possible — fleet unreachable, drained, or out of
//     attempts on transport-class failures. The engine then degrades to
//     local execution; the sweep completes either way.
//   - Any other error is a structured execution failure: the simulation
//     itself failed and would fail identically locally (simulations are
//     deterministic), so the engine surfaces it instead of burning a
//     local retry.
//
// Implementations must be safe for concurrent use: under either
// executor a job blocked in SimulateRemote holds no worker slot, so every
// uncached spec of a batch is in flight at once, for the Remote to order.
// An attempt's JobTimeout clock therefore covers a spec's queueing in the
// fleet as well as its execution; no binary sets both.
type Remote interface {
	SimulateRemote(ctx context.Context, spec SimSpec) (*sim.Result, error)
}

// ErrRemoteUnavailable is the sentinel a Remote returns (wrapped is fine)
// when remote execution cannot be had right now. It converts a remote
// dispatch into a local fallback rather than a failure.
var ErrRemoteUnavailable = errors.New("remote execution unavailable")

// remoteBody returns a spec job's remote-first body: dispatch the spec to
// the configured Remote, and on unavailability degrade to the local
// materialize-and-simulate path, which takes a worker slot first so
// Workers still bounds local CPU work. Remote jobs take no trace
// dependency — the worker regenerates the workload from the spec on its
// side — so a fleet-served sweep never generates traces on the
// coordinator; the trace is only produced here on the degraded path.
func (e *Engine) remoteBody(spec SimSpec) func(context.Context, []any) (any, error) {
	return func(ctx context.Context, _ []any) (any, error) {
		r, err := e.remote.SimulateRemote(ctx, spec)
		switch {
		case err == nil:
			e.simsRemote.Add(1)
			e.simsRun.Add(1)
			e.refsSimulated.Add(r.Counts.Total)
			r.Trace = spec.Trace.Name
			return r, nil
		case errors.Is(err, ErrRemoteUnavailable):
			e.remoteDegraded.Add(1)
			obs.Instant(ctx, "remote.degrade", nil, "error", err.Error())
			// Local work from here on: Workers bounds it like any other job.
			defer acquireSlot(ctx)()
			t, terr := e.Trace(ctx, spec.Trace)
			if terr != nil {
				return nil, terr
			}
			return e.simulateTrace(ctx, spec, t)
		default:
			return nil, err
		}
	}
}
