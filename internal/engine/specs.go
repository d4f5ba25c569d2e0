package engine

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
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

// Name is the spec's job ID, sim:<label>@<workload>: what a *Partial
// from Results names the spec's failure by.
func (s SimSpec) Name() string { return "sim:" + s.label() + "@" + s.Trace.Name }

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
	per, release, err := e.planSpecs(specs)
	if err != nil {
		return nil, err
	}
	defer release()
	if err := e.run(ctx, exec, per); err != nil {
		return nil, err
	}
	return outputs(per, func(i int) string { return specs[i].Name() })
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
	per, release, err := e.planSpecs(specs)
	if err != nil {
		return nil, err
	}
	defer release()
	merges := make([]output, len(groups))
	for i, g := range groups {
		merges[i] = output{j: e.mergeJob("merge:"+g[0].label(), per[:len(g)]), i: -1}
		per = per[len(g):]
	}
	if err := e.run(ctx, exec, merges); err != nil {
		return nil, err
	}
	return outputs(merges, func(i int) string { return groups[i][0].label() })
}

// An output is where one spec's result lands in a batch: the output of
// job j, or, when j walks a family group (walkBody), its member at
// index i; key is the spec's.
type output struct {
	j   *job
	i   int
	key Key
}

// A walkOutput is a walk job's output: each member's result or error.
type walkOutput struct {
	rs   []*sim.Result
	errs []error
}

// result returns the output once its job is done.
func (o output) result() (*sim.Result, error) {
	switch {
	case o.j.err != nil:
		return nil, o.j.err
	case o.i >= 0:
		w := o.j.out.(walkOutput)
		return w.rs[o.i], w.errs[o.i]
	}
	return o.j.out.(*sim.Result), nil
}

// run executes the jobs behind per and all their dependencies.
func (e *Engine) run(ctx context.Context, exec Executor, per []output) error {
	jobs := make([]*job, len(per))
	for i, o := range per {
		jobs[i] = o.j
	}
	return e.execute(ctx, exec, jobs...)
}

// outputs returns the results in order, with a failed one's position nil
// and a *Partial naming each failure by name(i).
func outputs(per []output, name func(i int) string) ([]*sim.Result, error) {
	out := make([]*sim.Result, len(per))
	failed := make(map[string]error)
	done := 0
	for i, o := range per {
		r, err := o.result()
		if err != nil {
			failed[name(i)] = err
			continue
		}
		out[i] = r
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
// per.
func (e *Engine) mergeJob(id string, per []output) *job {
	keys := make([]Key, len(per))
	deps := make([]*job, len(per))
	for i, o := range per {
		keys[i], deps[i] = o.key, o.j
	}
	return &job{
		ID:   id,
		Key:  mergeKey(keys),
		Deps: deps,
		Run: func(context.Context, []any) (any, error) {
			rs := make([]*sim.Result, len(per))
			for i, o := range per {
				var err error // a failed job skips the merge, a failed walk member stops it
				if rs[i], err = o.result(); err != nil {
					return nil, fmt.Errorf("dependency %s failed: %w", o.j.ID, err)
				}
			}
			return sim.Merge(rs...)
		},
	}
}

// planSpecs builds the trace-generation → simulation stages for a batch,
// returning one output per spec (duplicate specs share one): per workload
// one trace job through the single-flight Engine.Trace, feeding one
// simulation job per spec that replays it — a keyed job, or, for the
// specs one family walk can price, one walk job for them all (walkBody).
// Every spec of a family scheme goes through a walk job, alone or not,
// so which job computes a result shared with a concurrent batch never
// changes the job graph. release withdraws what the batch's walk jobs
// entered as wanted and no walk took (walkBody); the caller calls it once
// the batch has run.
func (e *Engine) planSpecs(specs []SimSpec) (per []output, release func(), err error) {
	per = make([]output, len(specs))
	first := make(map[Key]int)
	traceJobs := make(map[Key]*job)
	traceJob := func(cfg workload.Config) *job {
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
		return tj
	}
	// Each spec's first occurrence, its key, and the family group it
	// joins, if any: grouping reads the batch, never the caches.
	var uniq []int
	keys := make([]Key, len(specs))
	wks := make(map[int]walkKey)
	groups := make(map[walkKey][]int)
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, nil, err
		}
		keys[i] = s.Key()
		if _, ok := first[keys[i]]; ok {
			continue
		}
		first[keys[i]] = i
		uniq = append(uniq, i)
		if wk, ok := e.walkKey(s); ok {
			wks[i] = wk
			groups[wk] = append(groups[wk], i)
		}
	}
	var wanted []*wantGroup
	for _, i := range uniq {
		s, k := specs[i], keys[i]
		if wk, ok := wks[i]; ok {
			if members := groups[wk]; members[0] == i {
				j, g := e.walkJob(wk, specs, keys, members, traceJob)
				wanted = append(wanted, g)
				for n, m := range members {
					per[m] = output{j: j, i: n, key: keys[m]}
				}
			}
			continue
		}
		j := &job{ID: s.Name(), Key: k, offSlot: e.remote != nil, Run: func(ctx context.Context, in []any) (any, error) {
			rs, errs := e.compute(ctx, []SimSpec{s}, in)
			return rs[0], errs[0] // runBody drops the output of a failed attempt
		}}
		per[i] = output{j: j, i: -1, key: k}
		// A cached (or in-flight) result must not force a generation, and
		// a Remote's workers generate their own: compute asks Engine.Trace
		// if it must walk, which collapses concurrent asks to one.
		if !e.cached(k) && e.remote == nil {
			j.Deps = []*job{traceJob(s.Trace)}
		}
	}
	for i := range specs {
		per[i] = per[first[keys[i]]]
	}
	return per, func() { e.unwant(wanted) }, nil
}

// cached reports whether k's result is in memory (or in flight) or in
// the durable tier.
func (e *Engine) cached(k Key) bool {
	return e.results.peek(k) || (e.tier != nil && e.tier.HasResult(k.hex()))
}

// walkKey names the family walk that can price s: its trace, filter and
// block size. Only an unchecked spec of a scheme with a core.View joins
// one, and none does on an engine that injects faults (they are keyed
// by each spec's own job).
type walkKey struct {
	trace  Key
	filter string
	block  int
}

func (e *Engine) walkKey(s SimSpec) (walkKey, bool) {
	if s.Check || e.faults != nil {
		return walkKey{}, false
	}
	p, err := core.NewByName(s.Scheme, s.Trace.CPUs)
	if err != nil {
		return walkKey{}, false
	}
	_, ok := core.ViewOf(p)
	return walkKey{TraceKey(s.Trace), s.Filter, s.BlockBytes}, ok
}

// walkJob returns the one job of a family group, the specs at members:
// sim:<label>[+<label>...]@<workload>, depending on its trace's job like
// a keyed spec's job (planSpecs). The members wait in Engine.wanted, as
// g, for the first walk job of wk to start.
func (e *Engine) walkJob(wk walkKey, specs []SimSpec, keys []Key, members []int,
	traceJob func(workload.Config) *job) (j *job, g *wantGroup) {
	g = &wantGroup{wk: wk, specs: make([]SimSpec, len(members)), keys: make([]Key, len(members))}
	labels := make([]string, len(members))
	cached := true
	for n, m := range members {
		g.specs[n], g.keys[n], labels[n] = specs[m], keys[m], specs[m].label()
		cached = cached && e.cached(keys[m])
	}
	j = &job{ID: "sim:" + strings.Join(labels, "+") + "@" + specs[members[0]].Trace.Name,
		offSlot: e.remote != nil}
	if !cached && e.remote == nil {
		j.Deps = []*job{traceJob(specs[members[0]].Trace)}
	}
	e.wantMu.Lock()
	e.wanted[wk] = append(e.wanted[wk], g)
	e.wantMu.Unlock()
	j.Run = e.walkBody(j, g)
	return j, g
}

// A wantGroup is one batch's family specs for one walk key.
type wantGroup struct {
	wk    walkKey
	specs []SimSpec
	keys  []Key
}

// take returns g's specs and keys followed by those of every other group
// waiting under g's walk key, and clears the key: the walk about to start
// computes them all.
func (e *Engine) take(g *wantGroup) ([]SimSpec, []Key) {
	specs, keys := slices.Clip(g.specs), slices.Clip(g.keys)
	e.wantMu.Lock()
	defer e.wantMu.Unlock()
	for _, other := range e.wanted[g.wk] {
		for i, k := range other.keys {
			if !slices.Contains(keys, k) {
				specs, keys = append(specs, other.specs[i]), append(keys, k)
			}
		}
	}
	delete(e.wanted, g.wk)
	return specs, keys
}

// unwant withdraws the groups no walk took.
func (e *Engine) unwant(groups []*wantGroup) {
	e.wantMu.Lock()
	defer e.wantMu.Unlock()
	for _, g := range groups {
		if left := slices.DeleteFunc(e.wanted[g.wk], func(o *wantGroup) bool { return o == g }); len(left) > 0 {
			e.wanted[g.wk] = left
		} else {
			delete(e.wanted, g.wk)
		}
	}
}

// walkBody returns a family group job's body. It takes its members and
// those a concurrent batch planned under the same walk key whose own walk
// job has not started (take); looks each up in memory, then in the
// durable tier; computes the ones it owns together (compute); stores,
// stamps and publishes each of their outcomes under its own key; and only
// then waits on its members another job has in flight. Its output is its
// members' outcomes, in order, and the job is a cache hit when it
// computed nothing.
func (e *Engine) walkBody(j *job, g *wantGroup) func(context.Context, []any) (any, error) {
	return func(ctx context.Context, in []any) (_ any, err error) {
		specs, keys := e.take(g)
		rs, errs := make([]*sim.Result, len(specs)), make([]error, len(specs))
		flights := make([]*flight, len(specs))
		var own []int
		// A body that fails or panics still settles every flight it
		// claimed and did not publish, so no waiter hangs.
		defer func() {
			for _, i := range own {
				if flights[i] != nil {
					e.results.fulfill(keys[i], flights[i], nil,
						cmp.Or(err, fmt.Errorf("engine: %s stopped before publishing", j.ID)), 0, false)
				}
			}
		}()
		for i, k := range keys {
			f, owner := e.results.claim(k)
			if !owner {
				continue
			}
			e.cacheMisses.Add(1)
			if r, sum, ok := e.tierLoad(ctx, k); ok {
				e.results.fulfill(k, f, r, nil, sum, e.verify)
				rs[i] = r
				continue
			}
			flights[i] = f
			own = append(own, i)
		}
		j.cacheHit = len(own) == 0
		if len(own) > 0 {
			walk := make([]SimSpec, len(own))
			for n, i := range own {
				walk[n] = specs[i]
			}
			walked, werrs := e.compute(ctx, walk, in)
			// The end of the context, or one error every member failed with
			// (a walk of one, a local walk), fails the job as a whole, so its
			// retries and deadline apply as to a keyed job's.
			if ctx.Err() != nil || !slices.ContainsFunc(werrs, func(err error) bool { return err == nil || !errors.Is(err, werrs[0]) }) {
				return nil, cmp.Or(ctx.Err(), werrs[0])
			}
			for n, i := range own { // a failed member's nil result is neither stamped nor stored
				rs[i], errs[i] = walked[n], werrs[n]
				sum, stamped := e.stampFor(observedKey(keys[i]), walked[n])
				e.tierStore(ctx, keys[i], walked[n])
				e.results.fulfill(keys[i], flights[i], walked[n], werrs[n], sum, stamped)
				flights[i] = nil
			}
		}
		for i, k := range g.keys {
			if rs[i] != nil || errs[i] != nil {
				continue
			}
			v, _, err := e.lookup(ctx, e.results, k, func() (any, uint64, bool, error) {
				// The other job's flight failed and left: compute alone.
				r, rerr := e.compute(ctx, specs[i:i+1], in)
				sum, stamped := e.stampFor(observedKey(k), r[0])
				e.tierStore(ctx, k, r[0])
				return r[0], sum, stamped, rerr[0]
			})
			switch {
			case err == nil:
				rs[i] = v.(*sim.Result)
			case ctx.Err() != nil:
				return nil, err
			default:
				errs[i] = err
			}
		}
		return walkOutput{rs: rs[:len(g.keys)], errs: errs[:len(g.keys)]}, nil
	}
}

// simulate runs specs, which share a trace, a filter and a block size,
// over t in one walk — sim.Simulate for one spec, sim.SimulateFamily for
// a family group — and names each result after t: spec.Trace.Name for a
// generated trace, the file's own name for an adopted one. In
// verification mode a simulation that saw fewer references than the
// trace holds is reported as a truncation error instead of returning the
// silently partial result.
func (e *Engine) simulate(ctx context.Context, specs []SimSpec, t *trace.Trace) (rs []*sim.Result, err error) {
	// Each traced simulation is a span, journaled as sim.run; the
	// members of one walk share its start and end.
	if _, traced := obs.StartSpan(ctx); traced {
		start := time.Now()
		defer func() {
			for i, s := range specs {
				var refs int64
				if rs != nil {
					refs = rs[i].Counts.Total
				}
				sctx, _ := obs.StartSpan(ctx)
				obs.EndSpan(sctx, "sim.run", start, err,
					"name", "simulate:"+s.label()+"@"+s.Trace.Name, "refs", refs)
			}
		}()
	}
	spec := specs[0]
	ps := make([]core.Protocol, len(specs))
	for i, s := range specs {
		if ps[i], err = core.NewByName(s.Scheme, s.Trace.CPUs); err != nil {
			return nil, err
		}
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
	opts := sim.Options{Check: spec.Check, Models: spec.models()}
	if len(ps) > 1 {
		rs, err = sim.SimulateFamily(ps, src, opts)
	} else {
		var r *sim.Result
		r, err = sim.Simulate(ps[0], src, opts)
		rs = []*sim.Result{r}
	}
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		// The source may have been cut short by cancellation; the partial
		// result must not escape into the cache.
		return nil, err
	}
	if got := rs[0].Counts.Total; e.verify && got != expect {
		e.integrityFaults.Add(1)
		return nil, fmt.Errorf("engine: %s over %s simulated %d of %d refs (trace truncated)",
			spec.Scheme, spec.Trace.Name, got, expect)
	}
	e.walks.Add(1)
	for _, r := range rs {
		e.simsRun.Add(1)
		e.refsSimulated.Add(r.Counts.Total)
		e.publishCoherence(r)
		r.Trace = t.Name
	}
	return rs, nil
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
