package engine

import (
	"cmp"
	"context"
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
//
// Inside a batch a generation takes one slot of the batch's pool, none
// extra for a caller that holds one already; a caller that finds the
// trace in flight waits on it and takes none. The slot is taken before
// the generation is claimed, so no caller ever waits on a generation that
// waits for a slot; a caller that found the trace in flight and must
// generate it after all (that flight failed, or its trace was rejected)
// generates on the slot it holds, if any. Each generation is a
// trace.generate span named generate:<workload>, and its time lands in
// engine.job.generate.us.
func (e *Engine) Trace(ctx context.Context, cfg workload.Config) (*trace.Trace, error) {
	k := TraceKey(cfg)
	if !e.traces.peek(k) {
		var release func()
		ctx, release = acquireSlot(ctx)
		defer release()
	}
	v, _, err := e.lookup(ctx, e.traces, k, func() (any, uint64, bool, error) {
		start := time.Now()
		t, err := workload.Generate(cfg)
		if err == nil {
			e.tracesGenerated.Add(1)
		}
		e.generateUS.ObserveDuration(time.Since(start))
		sctx, _ := obs.StartSpan(ctx)
		obs.EndSpan(sctx, "trace.generate", start, err, "name", "generate:"+cfg.Name, "key", k.String())
		sum, stamped := e.stampFor(k.String(), t)
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
	per, jobs, release, err := e.planSpecs(specs)
	if err != nil {
		return nil, err
	}
	defer release()
	if err := e.execute(ctx, exec, jobs...); err != nil {
		return nil, err
	}
	return outputs(per, func(i int) string { return specs[i].Name() })
}

// Merge runs every group of specs and returns each group's
// reference-weighted merge (sim.Merge), in group order — the shape of
// Table 4, where a group is one scheme over the standard workloads. All
// groups are one Results batch: specs sharing a workload share one trace
// generation, and every simulation is cached by content. A merge is a sum
// of cached results, so it is computed again, not cached.
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
	rs, err := e.Results(ctx, exec, specs)
	p, partial := AsPartial(err)
	if err != nil && !partial {
		return nil, err
	}
	out := make([]*sim.Result, len(groups))
	failed := make(map[string]error)
	for i, g := range groups {
		members := rs[:len(g)]
		rs = rs[len(g):]
		var err error
		if n := slices.Index(members, nil); n >= 0 {
			err = p.Failed[g[n].Name()]
		} else {
			out[i], err = sim.Merge(members...)
		}
		if err != nil {
			failed[g[0].label()] = err
		}
	}
	if len(failed) > 0 {
		return out, &Partial{Failed: failed, Done: len(groups) - len(failed)}
	}
	return out, nil
}

// An output is where one spec's result lands in a batch: member i of
// walk job j.
type output struct {
	j *job
	i int
}

// A walkOutput is a walk job's output: each of its batch's members'
// result or error.
type walkOutput struct {
	rs   []*sim.Result
	errs []error
}

// result returns the output once its job is done.
func (o output) result() (*sim.Result, error) {
	if w := o.j.out; w.errs != nil {
		return w.rs[o.i], w.errs[o.i]
	}
	return nil, o.j.err // the job never walked: its trace failed, or the run ended
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

// planSpecs plans a batch's walk jobs: one per group of specs one pass
// over a trace prices (walkKey), a spec no family walk can price being a
// walk of one. It returns the jobs and one output per spec (duplicate
// specs share one). release withdraws what the jobs entered as wanted and
// no walk took (runWalk); the caller calls it once the batch has run.
func (e *Engine) planSpecs(specs []SimSpec) (per []output, jobs []*job, release func(), err error) {
	per = make([]output, len(specs))
	first := make(map[Key]int)
	// Each spec's first occurrence, its key, and the walk it joins:
	// grouping reads the batch, never the caches.
	var uniq []int
	keys := make([]Key, len(specs))
	wks := make([]walkKey, len(specs))
	groups := make(map[walkKey][]int)
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, nil, nil, err
		}
		keys[i] = s.Key()
		if _, ok := first[keys[i]]; ok {
			continue
		}
		first[keys[i]] = i
		uniq = append(uniq, i)
		wks[i] = s.walkKey(keys[i])
		groups[wks[i]] = append(groups[wks[i]], i)
	}
	var wanted []*wantGroup
	for _, i := range uniq {
		if members := groups[wks[i]]; members[0] == i {
			j := e.walkJob(wks[i], specs, keys, members)
			jobs, wanted = append(jobs, j), append(wanted, j.walk)
			for n, m := range members {
				per[m] = output{j: j, i: n}
			}
		}
	}
	for i := range specs {
		per[i] = per[first[keys[i]]]
	}
	return per, jobs, func() { e.unwant(wanted) }, nil
}

// cached reports whether every one of keys' results is in memory (or in
// flight) or in the durable tier.
func (e *Engine) cached(keys []Key) bool {
	for _, k := range keys {
		if !e.results.peek(k) && (e.tier == nil || !e.tier.HasResult(k.hex())) {
			return false
		}
	}
	return true
}

// walkKey names the walk that prices a spec: its trace, filter and block
// size, and, for a spec no family walk can price, its own key. Only an
// unchecked spec of a scheme with a core.View shares a walk.
type walkKey struct {
	trace  Key
	filter string
	block  int
	alone  Key
}

// walkKey returns s's walk key; k is s.Key().
func (s SimSpec) walkKey(k Key) walkKey {
	wk := walkKey{trace: TraceKey(s.Trace), filter: s.Filter, block: s.BlockBytes, alone: k}
	if p, err := core.NewByName(s.Scheme, s.Trace.CPUs); err == nil && !s.Check {
		if _, family := core.ViewOf(p); family {
			wk.alone = Key{}
		}
	}
	return wk
}

// walkJob returns the one job of a walk group, the specs at members:
// sim:<label>[+<label>...]@<workload>. The members wait in Engine.wanted,
// as j.walk, for the first walk job of wk to start.
func (e *Engine) walkJob(wk walkKey, specs []SimSpec, keys []Key, members []int) *job {
	g := &wantGroup{wk: wk, specs: make([]SimSpec, len(members)), keys: make([]Key, len(members))}
	labels := make([]string, len(members))
	for n, m := range members {
		g.specs[n], g.keys[n], labels[n] = specs[m], keys[m], specs[m].label()
	}
	j := &job{ID: "sim:" + strings.Join(labels, "+") + "@" + specs[members[0]].Trace.Name, walk: g}
	e.wantMu.Lock()
	e.wanted[wk] = append(e.wanted[wk], g)
	e.wantMu.Unlock()
	return j
}

// A wantGroup is one batch's specs for one walk key.
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

// runWalk computes a walk job's output over t, the trace runJob got for
// it (nil when it got none: Engine.Trace is asked when one is needed).
// It takes its members and those a concurrent batch planned under the
// same walk key whose own walk job has not started (take), and claims
// every key: a member in memory waits, a member in the durable tier
// resolves there, and the rest are the job's to compute. It computes
// those together under runBody's retries, deadline and panic isolation
// (attempts), and after the last attempt stamps, stores and publishes
// each outcome under its own key. Only then does it wait, through lookup,
// on its members another job holds. A job that computed nothing ran no
// attempt and is a cache hit.
func (e *Engine) runWalk(ctx context.Context, j *job, t *trace.Trace) walkOutput {
	specs, keys := e.take(j.walk)
	n := len(j.walk.keys)
	w := walkOutput{rs: make([]*sim.Result, n), errs: make([]error, n)}
	var own []int
	var flights []*flight
	for i, k := range keys {
		f, owner := e.results.claim(k)
		if !owner {
			continue
		}
		e.cacheMisses.Add(1)
		if r, sum, ok := e.tierLoad(ctx, k); ok {
			e.results.fulfill(k, f, r, nil, sum, e.verify)
			if i < n {
				w.rs[i] = r
			}
			continue
		}
		own, flights = append(own, i), append(flights, f)
	}
	j.cacheHit = len(own) == 0
	if len(own) > 0 {
		rs, errs := e.attempts(ctx, j, pick(specs, own), t)
		for m, i := range own {
			sum, stamped := e.keep(ctx, keys[i], rs[m])
			e.results.fulfill(keys[i], flights[m], rs[m], errs[m], sum, stamped)
			if i < n {
				w.rs[i], w.errs[i] = rs[m], errs[m]
			}
		}
	}
	for i, k := range keys[:n] {
		if w.rs[i] != nil || w.errs[i] != nil {
			continue
		}
		v, hit, err := e.lookup(ctx, e.results, k, func() (any, uint64, bool, error) {
			// The other job's flight was cancelled and left: compute alone.
			rs, errs := e.attempts(ctx, j, specs[i:i+1], t)
			sum, stamped := e.keep(ctx, k, rs[0])
			return rs[0], sum, stamped, errs[0]
		})
		j.cacheHit = j.cacheHit && hit
		w.rs[i], _ = v.(*sim.Result)
		w.errs[i] = err
	}
	return w
}

// attempts computes specs over t (nil: compute asks Engine.Trace) under
// runBody's retries, deadline and panic isolation, and returns each one's
// result or error. Each attempt, every
// member not yet settled draws its own injected faults (memberFault), and
// the rest are computed together, so a spec's outcome never depends on
// which walk computes it. A member's error, recorded as j's *JobError,
// sends it into the next attempt when it is retryable and settles it
// otherwise; a result settles it. Only the end of the attempt's context
// fails the attempt as a whole: the members it left are retried with it,
// or fail with the job's *JobError.
func (e *Engine) attempts(ctx context.Context, j *job, specs []SimSpec, t *trace.Trace) ([]*sim.Result, []error) {
	rs, errs := make([]*sim.Result, len(specs)), make([]error, len(specs))
	left := make([]int, len(specs))
	for i := range left {
		left[i] = i
	}
	attempt := 0
	err := e.runBody(ctx, j, func(ctx context.Context) error {
		defer func() { attempt++ }()
		walks := [][]int{nil}
		for _, i := range left {
			alone, err := e.memberFault(ctx, j, specs[i], attempt)
			switch errs[i] = err; {
			case err != nil:
			case alone:
				walks = append(walks, []int{i})
			default:
				walks[0] = append(walks[0], i)
			}
		}
		left = slices.DeleteFunc(left, func(i int) bool { return errs[i] != nil && !IsRetryable(errs[i]) })
		for _, walk := range slices.DeleteFunc(walks, func(w []int) bool { return len(w) == 0 }) {
			got, gotErrs := e.compute(ctx, pick(specs, walk), t)
			if err := ctx.Err(); err != nil {
				return err
			}
			for n, i := range walk {
				if rs[i] = got[n]; gotErrs[n] != nil {
					errs[i] = jobError(j, attempt, gotErrs[n])
				}
			}
		}
		if left = slices.DeleteFunc(left, func(i int) bool { return !IsRetryable(errs[i]) }); len(left) > 0 {
			return errs[left[0]]
		}
		return nil
	})
	for _, i := range left {
		errs[i] = cmp.Or(errs[i], err)
	}
	return rs, errs
}

// memberFault draws s's injected faults for its attempt'th attempt at
// s.Name(), whichever walk job computes s: a job fault, returned as j's
// *JobError (an injected panic is recovered, and counted, here), and
// whether the injector cuts s's stream (simulate), in which case s walks
// alone, so the cut fails s and no sibling.
func (e *Engine) memberFault(ctx context.Context, j *job, s SimSpec, attempt int) (alone bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = jobError(j, attempt, e.recovered(ctx, j, r))
		}
	}()
	if err := e.faults.JobFault(s.Name(), attempt); err != nil {
		return false, jobError(j, attempt, err)
	}
	_, alone = e.faults.TruncateAfter(s.Name(), int64(s.Trace.Refs))
	return alone, nil
}

// pick returns the specs at the given positions.
func pick(specs []SimSpec, at []int) []SimSpec {
	out := make([]SimSpec, len(at))
	for n, i := range at {
		out[n] = specs[i]
	}
	return out
}

// keep stamps a computed result for the memory tier and writes it through
// to the durable tier; a failed member's nil result is neither.
func (e *Engine) keep(ctx context.Context, k Key, r *sim.Result) (sum uint64, stamped bool) {
	e.tierStore(ctx, k, r)
	return e.stampFor(k.String(), r)
}

// simulate runs specs, which share a trace, a filter and a block size,
// over t in one walk — sim.Simulate for one spec, sim.SimulateFamily for
// a family group — and names each result after t: spec.Trace.Name for a
// generated trace, the file's own name for an adopted one. In
// verification mode a simulation that saw fewer references than the
// trace holds is reported as a truncation error instead of returning the
// silently partial result.
func (e *Engine) simulate(ctx context.Context, specs []SimSpec, t *trace.Trace) (rs []*sim.Result, err error) {
	// Each traced simulation is a span, journaled as sim.run with its
	// spec's key; the members of one walk share its start and end.
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
					"name", "simulate:"+s.label()+"@"+s.Trace.Name, "key", s.Key().String(), "refs", refs)
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
		src = e.faults.WrapSource(spec.Name(), src, expect)
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
