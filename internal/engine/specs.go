package engine

import (
	"context"
	"fmt"
	"strings"
	"time"

	"dirsim/internal/bus"
	"dirsim/internal/core"
	"dirsim/internal/event"
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
	// simulation, and fills are priced at that block size: BlockBytes/4
	// words under bus.PipelinedWords and bus.NonPipelinedWords. 0 means
	// the native trace.BlockBytes; any other value must pass
	// trace.CheckBlockSize.
	BlockBytes int
	// Filter names a transformation of the trace before simulation: ""
	// (none), FilterNoSpins or FilterProcAsCPU.
	Filter string `json:",omitempty"`
}

// The trace transformations a SimSpec may name.
const (
	// FilterNoSpins removes lock-test spin reads (trace.WithoutSpins).
	FilterNoSpins = "nospins"
	// FilterProcAsCPU caches per process, not per processor
	// (trace.ProcAsCPU).
	FilterProcAsCPU = "procascpu"
)

var filters = map[string]func(trace.Source) trace.Source{
	"":              nil,
	FilterNoSpins:   trace.WithoutSpins,
	FilterProcAsCPU: trace.ProcAsCPU,
}

// Key returns the spec's content hash. Any difference that can change the
// result — a profile knob, the seed, the CPU count, the scheme, checking,
// block size, filter — yields a different key. An unfiltered spec at the
// native block size hashes exactly as it did before filters existed; a
// rescaled one carries a marker, because its fills were once priced at 16
// bytes and such a result must never be served.
func (s SimSpec) Key() Key {
	parts := []string{"sim",
		canonicalScheme(s.Scheme, s.Trace.CPUs),
		fmt.Sprintf("check=%t block=%d", s.Check, s.BlockBytes),
		TraceKey(s.Trace).hex()}
	if s.rescaled() {
		parts = append(parts, "priced=block")
	}
	if s.Filter != "" {
		parts = append(parts, "filter="+s.Filter)
	}
	return hashOf(parts...)
}

// rescaled reports whether s simulates a block size other than the
// native one.
func (s SimSpec) rescaled() bool {
	return s.BlockBytes != 0 && s.BlockBytes != trace.BlockBytes
}

// models returns the bus cost models s is priced under: nil, sim's
// default pair, at the native block size, and the same two tariffs at
// BlockBytes/4 32-bit words otherwise.
func (s SimSpec) models() []bus.Model {
	if !s.rescaled() {
		return nil
	}
	words := s.BlockBytes / 4
	return []bus.Model{bus.PipelinedWords(words), bus.NonPipelinedWords(words)}
}

// Validate reports whether the engine can run s: a valid workload, a
// scheme core.NewByName builds at its CPU count, a known filter and a
// block size of 0 or one trace.CheckBlockSize accepts.
func (s SimSpec) Validate() error {
	if err := s.Trace.Validate(); err != nil {
		return err
	}
	if _, err := core.NewByName(s.Scheme, s.Trace.CPUs); err != nil {
		return err
	}
	if _, ok := filters[s.Filter]; !ok {
		return fmt.Errorf("engine: unknown filter %q (want %q or %q)",
			s.Filter, FilterNoSpins, FilterProcAsCPU)
	}
	if s.BlockBytes != 0 {
		return trace.CheckBlockSize(s.BlockBytes)
	}
	return nil
}

// label is the spec's scheme, with "/filter" after a filtered one. Job
// IDs name a simulation label@workload and a merge by its first spec's
// label.
func (s SimSpec) label() string {
	if s.Filter == "" {
		return s.Scheme
	}
	return s.Scheme + "/" + s.Filter
}

// Trace returns the materialized trace for cfg, generating it at most
// once per engine (concurrent callers share one generation). A memory
// miss always generates: the durable tier holds results only, because
// generating a trace is faster than reading one back from disk. A miss
// on an adopted trace's Config (Adopt) is workload.ErrNotGenerable. In
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

// Adopt validates t, a trace no workload name generates (a trace file),
// and caches it under the Config it returns, which a SimSpec then names
// like any other workload: zero Profile, Seed t.Fingerprint(), Name
// workload.AdoptedPrefix + t.Name. Adopting the same trace again returns
// the same Config and keeps one copy. Nothing regenerates an adopted
// trace, so once Trim drops it, specs over its Config fail with
// workload.ErrNotGenerable until it is adopted again.
func (e *Engine) Adopt(t *trace.Trace) (workload.Config, error) {
	if err := t.Validate(); err != nil {
		return workload.Config{}, err
	}
	cfg := workload.Config{Name: workload.AdoptedPrefix + t.Name, CPUs: t.CPUs,
		Refs: t.Len(), Seed: t.Fingerprint()}
	if err := cfg.Validate(); err != nil {
		return workload.Config{}, err
	}
	// An entry already under k holds this very trace (the key covers its
	// fingerprint), so only the first adoption stores it. Its stamp is
	// never poisoned: nothing could bring an evicted adopted trace back.
	k := TraceKey(cfg)
	if f, owner := e.traces.claim(k); owner {
		e.traces.fulfill(k, f, t, nil, cfg.Seed, e.verify)
	}
	return cfg, nil
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
	per, err := e.planSpecs(specs)
	if err != nil {
		return nil, err
	}
	if err := e.execute(ctx, exec, per...); err != nil {
		return nil, err
	}
	return outputs(per, func(i int) string { return per[i].ID })
}

// Merge runs every group of specs and returns each group's
// reference-weighted merge, in group order — the shape of Table 4, where
// a group is one scheme over the standard workloads. All groups are one
// batch: specs sharing a workload share one trace generation, and every
// simulation and every merge is cached by content.
//
// One group failing — a panicking simulator, a truncated trace — does not
// void the others: their merges are still returned (the failed positions
// nil) with a *Partial naming each failed group by its first spec's
// scheme (and filter). A non-Partial error means nothing ran.
func (e *Engine) Merge(ctx context.Context, exec Executor, groups [][]SimSpec) ([]*sim.Result, error) {
	var specs []SimSpec
	for _, g := range groups {
		if len(g) == 0 {
			return nil, fmt.Errorf("engine: empty group (nothing to merge)")
		}
		specs = append(specs, g...)
	}
	per, err := e.planSpecs(specs)
	if err != nil {
		return nil, err
	}
	merges := make([]*job, len(groups))
	for i, g := range groups {
		merges[i] = e.mergeJob("merge:"+g[0].label(), per[:len(g)])
		per = per[len(g):]
	}
	if err := e.execute(ctx, exec, merges...); err != nil {
		return nil, err
	}
	return outputs(merges, func(i int) string { return groups[i][0].label() })
}

// outputs returns the jobs' results in order, with a failed job's
// position nil and a *Partial naming each failure by name(i).
func outputs(jobs []*job, name func(i int) string) ([]*sim.Result, error) {
	out := make([]*sim.Result, len(jobs))
	failed := make(map[string]error)
	done := 0
	for i, j := range jobs {
		if j.err != nil {
			failed[name(i)] = j.err
			continue
		}
		out[i] = j.out.(*sim.Result)
		done++
	}
	if len(failed) > 0 {
		return out, &Partial{Failed: failed, Done: done}
	}
	return out, nil
}

// Compare is Merge with one group per scheme over cfgs, keyed by scheme
// name: the shape dirsim.RunSchemes and the frozen bench/layers.go ask
// for.
func (e *Engine) Compare(ctx context.Context, exec Executor, schemes []string,
	cfgs []workload.Config, check bool) (map[string]*sim.Result, error) {
	groups := make([][]SimSpec, len(schemes))
	for i, s := range schemes {
		for _, cfg := range cfgs {
			groups[i] = append(groups[i], SimSpec{Trace: cfg, Scheme: s, Check: check})
		}
	}
	rs, err := e.Merge(ctx, exec, groups)
	if rs == nil {
		return nil, err
	}
	out := make(map[string]*sim.Result, len(schemes))
	for i, r := range rs {
		if r != nil {
			out[schemes[i]] = r
		}
	}
	return out, err
}

// mergeJob aggregates the per-spec results of one group, cached by the
// ordered combination of the inputs' keys — the spec keys planSpecs gave
// deps.
func (e *Engine) mergeJob(id string, deps []*job) *job {
	keys := make([]Key, len(deps))
	for i, j := range deps {
		keys[i] = j.Key
	}
	return &job{
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
func (e *Engine) planSpecs(specs []SimSpec) ([]*job, error) {
	per := make([]*job, len(specs))
	byKey := make(map[Key]*job)
	traceJobs := make(map[Key]*job)
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		k := s.Key()
		if j, ok := byKey[k]; ok {
			per[i] = j
			continue
		}
		j := &job{ID: "sim:" + s.label() + "@" + s.Trace.Name, Key: k}
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
				tj = &job{
					ID: fmt.Sprintf("trace:%s", cfg.Name),
					Run: func(ctx context.Context, _ []any) (any, error) {
						return e.Trace(ctx, cfg)
					},
				}
				traceJobs[tk] = tj
			}
			j.Deps = []*job{tj}
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

// simulateTrace runs one spec's protocol over its materialized trace and
// names the result after t: spec.Trace.Name for a generated trace, the
// file's own name for an adopted one. In verification mode a simulation
// that saw fewer references than the trace holds is reported as a
// truncation error instead of returning the silently partial result.
func (e *Engine) simulateTrace(ctx context.Context, spec SimSpec, t *trace.Trace) (res *sim.Result, err error) {
	// A traced simulation is a span, journaled as sim.run.
	var traced bool
	if ctx, traced = obs.StartSpan(ctx); traced {
		start := time.Now()
		defer func() {
			var refs int64
			if res != nil {
				refs = res.Counts.Total
			}
			obs.EndSpan(ctx, "sim.run", start, err,
				"name", "simulate:"+spec.label()+"@"+spec.Trace.Name, "refs", refs)
		}()
	}
	p, err := core.NewByName(spec.Scheme, spec.Trace.CPUs)
	if err != nil {
		return nil, err
	}
	expect := int64(len(t.Refs))
	src := t.IteratorContext(ctx)
	if e.faults != nil {
		src = e.faults.WrapSource("sim:"+spec.label()+"@"+spec.Trace.Name, src, expect)
	}
	if filter := filters[spec.Filter]; filter != nil {
		src = filter(src)
		if e.verify {
			expect = kept(t, filter)
		}
	}
	if spec.rescaled() {
		if src, err = trace.WithBlockSize(src, spec.BlockBytes); err != nil {
			return nil, err
		}
	}
	r, err := sim.Simulate(p, src, sim.Options{Check: spec.Check, Models: spec.models()})
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
	e.publishCoherence(r)
	r.Trace = t.Name
	return r, nil
}

// publishCoherence adds a finished simulation's coherence tallies to its
// scheme's sim.proto.<scheme>.* instruments: the writes to clean blocks,
// broadcasts and forced invalidations, and the Figure 1 histogram of
// caches invalidated per clean write. Concurrent simulations of one
// scheme accumulate into one family.
func (e *Engine) publishCoherence(r *sim.Result) {
	base := "sim.proto." + strings.ToLower(r.Scheme)
	e.reg.Counter(base + ".clean_writes").Add(r.Counts.N[event.WrHitClean] + r.Counts.N[event.WrMissClean])
	e.reg.Counter(base + ".broadcasts").Add(r.Broadcasts)
	e.reg.Counter(base + ".forced_invals").Add(r.ForcedInvals)
	invals := e.reg.Histogram(base+".invals_clean_write", obs.InvalBuckets)
	for holders, n := range r.InvalClean.Buckets {
		invals.ObserveN(int64(holders), n)
	}
}

// kept counts the references of t that filter lets through.
func kept(t *trace.Trace, filter func(trace.Source) trace.Source) int64 {
	var n int64
	src, buf := filter(t.Iterator()), make([]trace.Ref, 4096)
	for k := src.NextBatch(buf); k > 0; k = src.NextBatch(buf) {
		n += int64(k)
	}
	return n
}
