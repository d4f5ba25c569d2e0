package engine

import (
	"context"
	"fmt"
	"time"

	"dirsim/internal/core"
	"dirsim/internal/obs"
	"dirsim/internal/sim"
	"dirsim/internal/trace"
	"dirsim/internal/workload"
)

// SimSpec fully identifies one simulation: a generated workload, a
// coherence scheme, and the options that influence measured numbers. The
// spec — not any materialized artifact — is the unit of caching: its
// content hash keys the result cache.
type SimSpec struct {
	// Trace is the workload specification; the trace is regenerated on
	// demand, never shipped with the spec.
	Trace workload.Config
	// Scheme is a protocol name accepted by core.NewByName
	// (case-insensitive).
	Scheme string
	// Check enables value-coherence checking during the run.
	Check bool
	// BlockBytes rescales the trace to a non-standard block size before
	// simulation; 0 means the native trace.BlockBytes.
	BlockBytes int
}

// Key returns the spec's content hash. Any difference that can change the
// result — a profile knob, the seed, the CPU count, the scheme, checking,
// block size — yields a different key.
func (s SimSpec) Key() Key {
	return hashOf("sim",
		canonicalScheme(s.Scheme, s.Trace.CPUs),
		fmt.Sprintf("check=%t block=%d", s.Check, s.BlockBytes),
		TraceKey(s.Trace).hex())
}

// Trace returns the materialized trace for cfg, generating it at most
// once per engine (concurrent callers share one generation). A memory
// miss always generates: the durable tier holds results only, because
// generating a trace is faster than reading one back from disk. In
// verification mode every hit revalidates the trace against the
// fingerprint recorded when it was cached; a mismatch evicts the entry
// and regenerates instead of serving the corrupted trace.
func (e *Engine) Trace(ctx context.Context, cfg workload.Config) (*trace.Trace, error) {
	k := TraceKey(cfg)
	v, _, err := e.lookup(ctx, e.traces, k, func() (any, uint64, bool, error) {
		t, err := workload.Generate(cfg)
		if err == nil {
			e.tracesGenerated.Add(1)
		}
		sum, stamped := e.stampFor(observedKey(k), t)
		return t, sum, stamped, err
	})
	t, _ := v.(*trace.Trace)
	return t, err
}

// Trim drops every cached result and every cached trace except keep's,
// leaving computations still in flight alone. Whatever it drops is
// recomputed, bit-identically, when next asked for. A fleet worker calls
// it around each job, so its engine holds the leased trace and nothing
// more; an engine shared with other callers would only recompute more.
func (e *Engine) Trim(keep workload.Config) {
	e.results.trim(Key{})
	e.traces.trim(TraceKey(keep))
}

// Results computes one *sim.Result per spec. Within the batch, specs
// sharing a workload share one trace generation; across batches, results
// (and materialized traces) are reused through the content-addressed
// caches. Duplicate specs collapse to a single simulation.
//
// The batch degrades rather than voids: when some simulations fail the
// successes are still returned (failed positions nil) together with a
// *Partial error mapping each failed job to its cause. A non-Partial
// error means the batch could not run at all.
func (e *Engine) Results(ctx context.Context, exec Executor, specs []SimSpec) ([]*sim.Result, error) {
	if exec == nil {
		exec = Sequential{}
	}
	per, err := e.planSpecs(specs)
	if err != nil {
		return nil, err
	}
	roots := dedupJobs(per)
	if err := e.ExecuteAll(ctx, exec, roots...); err != nil {
		return nil, err
	}
	out := make([]*sim.Result, len(per))
	failed := make(map[string]error)
	done := 0
	for i, j := range per {
		v, err := j.Output()
		if err != nil {
			failed[j.ID] = err
			continue
		}
		out[i] = v.(*sim.Result)
		done++
	}
	if len(failed) > 0 {
		return out, &Partial{Failed: failed, Done: done}
	}
	return out, nil
}

// SchemeOverTraces runs one scheme over several workloads and returns the
// per-workload results plus their reference-weighted merge — the engine
// counterpart of sim.SchemeOverTraces, executed as a trace → simulate →
// aggregate DAG with every stage cached.
func (e *Engine) SchemeOverTraces(ctx context.Context, exec Executor, scheme string,
	cfgs []workload.Config, check bool) (per []*sim.Result, merged *sim.Result, err error) {
	if exec == nil {
		exec = Sequential{}
	}
	specs := make([]SimSpec, len(cfgs))
	for i, cfg := range cfgs {
		specs[i] = SimSpec{Trace: cfg, Scheme: scheme, Check: check}
	}
	perJobs, err := e.planSpecs(specs)
	if err != nil {
		return nil, nil, err
	}
	mj := e.mergeJob(fmt.Sprintf("merge:%s", scheme), perJobs)
	if err := e.ExecuteAll(ctx, exec, mj); err != nil {
		return nil, nil, err
	}
	per = make([]*sim.Result, len(perJobs))
	failed := make(map[string]error)
	done := 0
	for i, j := range perJobs {
		v, jerr := j.Output()
		if jerr != nil {
			failed[specs[i].Trace.Name] = jerr
			continue
		}
		per[i] = v.(*sim.Result)
		done++
	}
	if len(failed) > 0 {
		// The merge is skipped when any input failed; the surviving
		// per-trace results are still delivered.
		return per, nil, &Partial{Failed: failed, Done: done}
	}
	out, err := mj.Output()
	if err != nil {
		return per, nil, err
	}
	return per, out.(*sim.Result), nil
}

// Compare runs several schemes over the same set of workloads in one
// batch — the shape of Table 4 and Figure 2 — and returns each scheme's
// merged result. All schemes replay one generation of each workload.
func (e *Engine) Compare(ctx context.Context, exec Executor, schemes []string,
	cfgs []workload.Config, check bool) (map[string]*sim.Result, error) {
	if exec == nil {
		exec = Sequential{}
	}
	specs := make([]SimSpec, 0, len(schemes)*len(cfgs))
	for _, s := range schemes {
		for _, cfg := range cfgs {
			specs = append(specs, SimSpec{Trace: cfg, Scheme: s, Check: check})
		}
	}
	perJobs, err := e.planSpecs(specs)
	if err != nil {
		return nil, err
	}
	merges := make([]*Job, len(schemes))
	for i, s := range schemes {
		merges[i] = e.mergeJob(fmt.Sprintf("merge:%s", s), perJobs[i*len(cfgs):(i+1)*len(cfgs)])
	}
	if err := e.ExecuteAll(ctx, exec, merges...); err != nil {
		return nil, err
	}
	out := make(map[string]*sim.Result, len(schemes))
	failed := make(map[string]error)
	for i, s := range schemes {
		v, err := merges[i].Output()
		if err != nil {
			// One scheme sinking — a panicking simulator, a truncated
			// trace — must not void the comparison: the other schemes'
			// merged results are still delivered alongside a *Partial
			// naming the failed scheme and its cause.
			failed[s] = err
			continue
		}
		out[s] = v.(*sim.Result)
	}
	if len(failed) > 0 {
		return out, &Partial{Failed: failed, Done: len(out)}
	}
	return out, nil
}

// RunProtocolOverTraces simulates engines built by build over already
// materialized traces (optionally filtered) and merges the results. It is
// the engine's escape hatch for non-registry protocols and filtered
// replays; the work parallelizes across traces but is uncached, since an
// arbitrary builder or filter has no content identity.
func (e *Engine) RunProtocolOverTraces(ctx context.Context, exec Executor,
	build func(ncpu int) core.Protocol, traces []*trace.Trace,
	filter func(trace.Source) trace.Source, opts sim.Options) (*sim.Result, error) {
	if exec == nil {
		exec = Sequential{}
	}
	if len(traces) == 0 {
		return nil, fmt.Errorf("engine: no traces to run")
	}
	jobs := make([]*Job, len(traces))
	for i, t := range traces {
		t := t
		jobs[i] = &Job{
			ID: fmt.Sprintf("protocol:%s", t.Name),
			Run: func(ctx context.Context, _ []any) (any, error) {
				src := trace.Source(t.Iterator())
				if filter != nil {
					src = filter(src)
				}
				p := build(t.CPUs)
				r, err := sim.Simulate(p, cancellable(ctx, src), opts)
				if err != nil {
					return nil, fmt.Errorf("%s over %s: %w", p.Name(), t.Name, err)
				}
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				e.simsRun.Add(1)
				e.refsSimulated.Add(r.Counts.Total)
				r.Trace = t.Name
				return r, nil
			},
		}
	}
	mj := &Job{
		ID:   "merge:protocol",
		Deps: jobs,
		Run: func(_ context.Context, in []any) (any, error) {
			rs := make([]*sim.Result, len(in))
			for i, v := range in {
				rs[i] = v.(*sim.Result)
			}
			return sim.Merge(rs...)
		},
	}
	if err := e.Execute(ctx, exec, mj); err != nil {
		return nil, err
	}
	out, err := mj.Output()
	if err != nil {
		return nil, err
	}
	return out.(*sim.Result), nil
}

// mergeJob aggregates the per-spec results of one scheme, cached by the
// ordered combination of the inputs' keys — the spec keys planSpecs gave
// deps.
func (e *Engine) mergeJob(id string, deps []*Job) *Job {
	keys := make([]Key, len(deps))
	for i, j := range deps {
		keys[i] = j.Key
	}
	return &Job{
		ID:   id,
		Key:  mergeKey(keys),
		Deps: deps,
		Run: func(_ context.Context, in []any) (any, error) {
			rs := make([]*sim.Result, len(in))
			for i, v := range in {
				rs[i] = v.(*sim.Result)
			}
			return sim.Merge(rs...)
		},
	}
}

// planSpecs builds the trace-generation → simulation stages for a batch,
// returning one result job per spec (duplicate specs share a job): per
// workload one trace job through the single-flight Engine.Trace, feeding
// one keyed simulation job per scheme that replays it.
func (e *Engine) planSpecs(specs []SimSpec) ([]*Job, error) {
	per := make([]*Job, len(specs))
	byKey := make(map[Key]*Job)
	traceJobs := make(map[Key]*Job)
	for i, s := range specs {
		if err := s.Trace.Validate(); err != nil {
			return nil, err
		}
		if _, err := core.NewByName(s.Scheme, s.Trace.CPUs); err != nil {
			return nil, err
		}
		k := s.Key()
		if j, ok := byKey[k]; ok {
			per[i] = j
			continue
		}
		j := &Job{ID: fmt.Sprintf("sim:%s@%s", s.Scheme, s.Trace.Name), Key: k}
		byKey[k] = j
		per[i] = j
		switch {
		case e.results.peek(k) || (e.tier != nil && e.tier.HasResult(k.hex())):
			// A result already cached (or in flight) — in memory or in the
			// durable tier — must not force a generation: the standalone
			// body in practice resolves from a cache.
			j.Run = e.simulateBody(s)
		case e.remote != nil:
			// Remote-first: each uncached spec dispatches on its own — the
			// fleet's workers regenerate the workload themselves, so no
			// trace job is planned here. The degraded path inside the body
			// falls back to Engine.Trace, which still collapses concurrent
			// fallbacks of one workload to a single generation.
			j.Run, j.offSlot = e.remoteBody(s), true
		default:
			cfg := s.Trace
			tk := TraceKey(cfg)
			tj, ok := traceJobs[tk]
			if !ok {
				tj = &Job{
					ID: fmt.Sprintf("trace:%s", cfg.Name),
					Run: func(ctx context.Context, _ []any) (any, error) {
						return e.Trace(ctx, cfg)
					},
				}
				traceJobs[tk] = tj
			}
			j.Deps = []*Job{tj}
			j.Run = e.simulateBody(s)
		}
	}
	return per, nil
}

// simulateBody returns a spec job's body: simulate over the materialized
// trace — the trace job's output when the job depends on one, otherwise an
// engine-cache lookup (the cache-hit recompute path).
func (e *Engine) simulateBody(spec SimSpec) func(context.Context, []any) (any, error) {
	return func(ctx context.Context, in []any) (any, error) {
		if len(in) > 0 {
			return e.simulateTrace(ctx, spec, in[0].(*trace.Trace))
		}
		t, err := e.Trace(ctx, spec.Trace)
		if err != nil {
			return nil, err
		}
		return e.simulateTrace(ctx, spec, t)
	}
}

// simulateTrace runs one spec's protocol over its materialized trace. In
// verification mode a simulation that saw fewer references than the trace
// holds is reported as a truncation error instead of returning the
// silently partial result.
func (e *Engine) simulateTrace(ctx context.Context, spec SimSpec, t *trace.Trace) (res *sim.Result, err error) {
	// A traced simulation is a span, journaled as sim.run; sampled
	// protocol events nest under it.
	var traced bool
	if ctx, traced = obs.StartSpan(ctx); traced {
		start := time.Now()
		defer func() {
			var refs int64
			if res != nil {
				refs = res.Counts.Total
			}
			obs.EndSpan(ctx, "sim.run", start, err,
				"name", fmt.Sprintf("simulate:%s@%s", spec.Scheme, spec.Trace.Name), "refs", refs)
		}()
	}
	p, err := core.NewByName(spec.Scheme, spec.Trace.CPUs)
	if err != nil {
		return nil, err
	}
	expect := int64(len(t.Refs))
	src := trace.Source(t.Iterator())
	if e.faults != nil {
		src = e.faults.WrapSource(fmt.Sprintf("sim:%s@%s", spec.Scheme, spec.Trace.Name), src, expect)
	}
	if spec.BlockBytes != 0 && spec.BlockBytes != trace.BlockBytes {
		if src, err = trace.WithBlockSize(src, spec.BlockBytes); err != nil {
			return nil, err
		}
	}
	opts := sim.Options{Check: spec.Check}
	if e.protoSample > 0 {
		// The sampler is per-simulation (its instants nest under the
		// simulation's span) but its instruments are per-scheme on the
		// engine's registry, so concurrent runs accumulate into one family.
		opts.Telemetry = obs.NewProtoSampler(ctx, e.reg, spec.Scheme, e.protoSample)
	}
	r, err := sim.Simulate(p, cancellable(ctx, src), opts)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		// The source may have been cut short by cancellation; the partial
		// result must not escape into the cache.
		return nil, err
	}
	if e.verify && r.Counts.Total != expect {
		e.integrityFaults.Add(1)
		return nil, fmt.Errorf("engine: %s over %s simulated %d of %d refs (trace truncated)",
			spec.Scheme, spec.Trace.Name, r.Counts.Total, expect)
	}
	e.simsRun.Add(1)
	e.refsSimulated.Add(r.Counts.Total)
	r.Trace = spec.Trace.Name
	return r, nil
}

func dedupJobs(jobs []*Job) []*Job {
	seen := make(map[*Job]bool, len(jobs))
	out := make([]*Job, 0, len(jobs))
	for _, j := range jobs {
		if !seen[j] {
			seen[j] = true
			out = append(out, j)
		}
	}
	return out
}
