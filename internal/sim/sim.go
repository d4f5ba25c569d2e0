// Package sim drives trace simulations: it feeds a reference stream
// through a protocol engine, accumulates the Table 4 event frequencies,
// the Figure 1 invalidation histogram, and bus-cycle tallies under one or
// more cost models, and merges results across traces.
package sim

import (
	"fmt"
	"sync"

	"dirsim/internal/bus"
	"dirsim/internal/core"
	"dirsim/internal/event"
	"dirsim/internal/network"
	"dirsim/internal/trace"
)

// DefaultBatchRefs is the number of references Simulate pulls from the
// source per NextBatch call. Results are bit-identical for every batch
// size; it tunes amortization only.
const DefaultBatchRefs = 4096

// Options configures a simulation run.
type Options struct {
	// Models are the bus cost models to price the run under. When
	// empty, the paper's pipelined and non-pipelined models are used.
	Models []bus.Model
	// Topologies additionally prices the run on interconnection
	// networks (the Section 6 scalability analysis); results land in
	// Result.NetTallies keyed by topology name.
	Topologies []network.Topology
	// Check attaches a value-coherence checker to the engine and
	// verifies engine invariants periodically. Slower; used by tests.
	Check bool
	// InvariantEvery is how many references pass between invariant
	// checks when Check is set (default 8192).
	InvariantEvery int
	// Shards selects intra-trace parallel simulation: when > 1,
	// SimulateTrace partitions the trace's references by block across
	// this many concurrent protocol cores and merges the per-shard
	// tallies (see SimulateSharded) — bit-identical to the sequential
	// path. 0 or 1 runs the single-goroutine loop above.
	Shards int
}

func (o Options) models() []bus.Model {
	if len(o.Models) == 0 {
		return []bus.Model{bus.Pipelined(), bus.NonPipelined()}
	}
	return o.Models
}

// Result holds everything measured in one run (or merged across runs) of
// one scheme.
type Result struct {
	// Scheme is the protocol name; Trace names the input (or the list
	// of merged inputs).
	Scheme string
	Trace  string

	// Counts is the Table 4 event-frequency table.
	Counts event.Counts
	// InvalClean is the Figure 1 histogram: the number of remote caches
	// holding a previously-clean block when it is written (events
	// wh-blk-cln and wm-blk-cln).
	InvalClean event.Hist
	// HoldersAtInval extends Figure 1's footnote: remote holders at
	// *every* reference that may require invalidations, including
	// misses to dirty blocks (which need exactly one).
	HoldersAtInval event.Hist

	// Broadcasts counts invalidations delivered by broadcast,
	// SeqInvals directed invalidation messages, ForcedInvals
	// pointer-overflow evictions (DiriNB), WriteBacks dirty flushes.
	Broadcasts   int64
	SeqInvals    int64
	ForcedInvals int64
	WriteBacks   int64

	// ColdMisses, CoherenceMisses and CapacityMisses are a finite
	// cache's misses by cause (core.MissCauses), zero for infinite ones.
	ColdMisses      int64 `json:",omitempty"`
	CoherenceMisses int64 `json:",omitempty"`
	CapacityMisses  int64 `json:",omitempty"`

	// Tallies holds one bus-cycle tally per cost model, keyed by model
	// name.
	Tallies map[string]*bus.Tally
	// NetTallies holds one network tally per topology, keyed by
	// topology name (present only when Options.Topologies was set).
	NetTallies map[string]*network.Tally
}

// Tally returns the tally for the named bus model, or nil.
func (r *Result) Tally(model string) *bus.Tally { return r.Tallies[model] }

// PerRef returns bus cycles per reference under the named model (0 when
// the model was not priced).
func (r *Result) PerRef(model string) float64 {
	t := r.Tallies[model]
	if t == nil {
		return 0
	}
	return t.PerRef()
}

// Simulate runs the protocol over the stream and returns the measurements.
func Simulate(p core.Protocol, src trace.Source, opts Options) (*Result, error) {
	if src.CPUCount() > p.CPUs() {
		return nil, fmt.Errorf("sim: trace has %d CPUs but %s engine simulates %d",
			src.CPUCount(), p.Name(), p.CPUs())
	}
	res := newResult(p.Name(), opts)
	var checker *core.Checker
	if opts.Check {
		checker = core.NewChecker()
		if !core.Attach(p, checker) {
			return nil, fmt.Errorf("sim: %s does not support coherence checking", p.Name())
		}
	}
	every := int64(opts.InvariantEvery)
	if every <= 0 {
		every = 8192
	}
	// References move in batches, so the steady-state loop allocates
	// nothing and pays the Source interface dispatch once per batch, not
	// per reference. A trace's own Iterator is read in place; any other
	// source is copied into buf, allocated on its first batch. Sparse
	// results go out through one reusable buffer, grown by an earlier
	// simulation if one left it. Outcomes are counted by class in a
	// table in this frame and priced once, after the loop.
	var buf []trace.Ref
	sparse := sparseBatches.Get().(*sparseBatch)
	defer sparse.release()
	var classes classTable
	var n int64
	for {
		refs := trace.Next(src, &buf, DefaultBatchRefs)
		if len(refs) == 0 {
			break
		}
		if opts.Check {
			// The checked path stays per-reference so invariant
			// violations are pinned to the exact reference count that
			// exposed them, batch boundaries notwithstanding.
			for _, r := range refs {
				out := p.Access(r)
				res.record(&out, 1, &classes)
				n++
				if n%every == 0 {
					if err := p.CheckInvariants(); err != nil {
						return nil, fmt.Errorf("sim: after %d refs: %w", n, err)
					}
				}
			}
			continue
		}
		res.simulateBatch(p, refs, sparse, &classes)
	}
	if opts.Check {
		if err := p.CheckInvariants(); err != nil {
			return nil, err
		}
		if err := checker.Err(); err != nil {
			return nil, err
		}
	}
	res.price(&classes)
	res.ColdMisses, res.CoherenceMisses, res.CapacityMisses, _ = core.MissCauses(p)
	return res, nil
}

// SimulateFamily runs the MRSW family's shared walk (core.Walk) once over
// the stream and prices it as each of ps, returning one Result per
// protocol, each bit-identical to what Simulate(p, src, opts) returns:
// the plain counts are shared, and each variant prices its own plain
// outcomes and steps into its own class table, so WTI's write-throughs
// stay priced. Every p must have a core.View, all at one CPU count, and
// opts.Check must be unset: a checker follows one variant's data.
func SimulateFamily(ps []core.Protocol, src trace.Source, opts Options) ([]*Result, error) {
	if len(ps) == 0 || opts.Check {
		return nil, fmt.Errorf("sim: a family walk needs protocols and no checker")
	}
	views := make([]*core.View, len(ps))
	res := make([]*Result, len(ps))
	for i, p := range ps {
		v, ok := core.ViewOf(p)
		if !ok || p.CPUs() != ps[0].CPUs() {
			return nil, fmt.Errorf("sim: %s does not share %s's walk", p.Name(), ps[0].Name())
		}
		if src.CPUCount() > p.CPUs() {
			return nil, fmt.Errorf("sim: trace has %d CPUs but %s engine simulates %d",
				src.CPUCount(), p.Name(), p.CPUs())
		}
		views[i], res[i] = v, newResult(p.Name(), opts)
	}
	walk := core.NewWalk(ps[0].CPUs())
	classes := make([]classTable, len(ps))
	var buf []trace.Ref
	var plain core.Plain
	var steps []core.Step
	for {
		refs := trace.Next(src, &buf, DefaultBatchRefs)
		if len(refs) == 0 {
			break
		}
		plain.N = [event.NumTypes]int64{}
		steps = walk.Next(refs, &plain, steps[:0])
		for i, v := range views {
			for t, n := range plain.N {
				if n > 0 {
					out := v.Plain(event.Type(t))
					res[i].record(&out, n, &classes[i])
				}
			}
			for _, s := range steps {
				out := v.Result(s)
				res[i].record(&out, 1, &classes[i])
			}
		}
	}
	for i, r := range res {
		r.price(&classes[i])
	}
	return res, nil
}

// newResult builds an empty Result for one simulation (or one shard of
// one) with its tallies instantiated from opts.
func newResult(scheme string, opts Options) *Result {
	res := &Result{
		Scheme:  scheme,
		Tallies: make(map[string]*bus.Tally),
	}
	for _, m := range opts.models() {
		res.Tallies[m.Name] = bus.NewTally(m)
	}
	if len(opts.Topologies) > 0 {
		res.NetTallies = make(map[string]*network.Tally)
		for _, topo := range opts.Topologies {
			res.NetTallies[topo.Name] = network.NewTally(topo)
		}
	}
	return res
}

// sparseBatch is the reusable scratch of a simulation's hot loop, what
// core.AccessSparse fills for one batch. The results buffer grows to the
// few per cent of a batch that changed state, or to most of a batch on
// a miss-heavy trace; the batch is kept for the next simulation, and
// such a buffer with it (release).
//
// The plain counters take a write per reference in the dense fallback,
// and the batch lives on the heap, where another simulation's batch may
// be its neighbour.
// The pads keep the two out of each other's cache lines, so two
// simulations replaying on two cores never pass one line back and forth
// on every reference. Without them, one unrelated extra allocation
// elsewhere made parallel regenerations 50 % slower (DESIGN.md,
// "Decision record: every report study is a keyed spec").
type sparseBatch struct {
	_     [64]byte
	plain core.Plain
	outs  []event.Result
	_     [64]byte
}

// sparseBatches holds batches that finished simulations released. Every
// one comes from its New, so every one keeps its pads.
var sparseBatches = sync.Pool{New: func() any { return new(sparseBatch) }}

// release hands b to the next simulation, with its results buffer only
// if that grew past a quarter of a batch. Growing that much again is
// most of what a miss-heavy simulation allocates: Dir0B over 16 384
// pingpong references allocates 273 KB when it grows a new buffer, 13 KB
// when it reuses one. A smaller buffer — every standard trace's — costs
// a few KB to grow, and keeping it too took that allocation out of
// Simulate and none out of dense classification, which turned the
// benchmark's sim.price_ns_per_ref (their difference) negative in most
// quick runs.
func (b *sparseBatch) release() {
	if cap(b.outs) < DefaultBatchRefs/4 {
		b.outs = nil
	}
	sparseBatches.Put(b)
}

// simulateBatch classifies one batch and accumulates it. Most of any
// trace is references that change no state — instruction fetches, hits,
// WTI's write-throughs and Dragon's repeat updates — which touch no
// histogram, and every one counted under a type had the same outcome:
// the core only counts those, and each type's number is recorded here
// once for the batch, with its outcome. Every other result is recorded
// one by one — quiet results that are not plain included (Yen–Fu's
// wh-blk-cln: a Figure 1 point).
func (r *Result) simulateBatch(p core.Protocol, refs []trace.Ref, b *sparseBatch, classes *classTable) {
	b.plain.N = [event.NumTypes]int64{}
	b.outs = core.AccessSparse(p, refs, &b.plain, b.outs[:0])
	for t, n := range b.plain.N {
		if n > 0 {
			r.record(&b.plain.Outcome[t], n, classes)
		}
	}
	for i := range b.outs {
		r.record(&b.outs[i], 1, classes)
	}
}

// record accumulates n classified references alike, out: their integer
// bookkeeping in r, and their class, for pricing at the end, in classes.
// n is 1 for every type a histogram observes: a count carries no
// Holders.
func (r *Result) record(out *event.Result, n int64, classes *classTable) {
	r.Counts.Add(out.Type, n)
	switch out.Type {
	case event.WrHitClean, event.WrMissClean:
		r.InvalClean.Observe(int(out.Holders))
		r.HoldersAtInval.Observe(int(out.Holders))
	case event.WrMissDirty, event.RdMissDirty:
		r.HoldersAtInval.Observe(int(out.Holders))
	}
	if out.Quiet() {
		// Hits and instruction fetches — the bulk of every trace — touch
		// no traffic counter, and every cost model prices them at zero.
		classes.free += n
		return
	}
	if out.Broadcast && !out.Update {
		r.Broadcasts += n
	}
	r.SeqInvals += n * int64(out.Inval)
	r.ForcedInvals += n * int64(out.ForcedInval)
	if out.WriteBack {
		r.WriteBacks += n
	}
	if out.Type.IsFirstRef() {
		// First-reference misses are excluded from the multiprocessing
		// overhead: every cost model prices them at zero too.
		classes.free += n
		return
	}
	classes.add(out, n)
}

// SimulateTrace builds the named scheme for the trace's CPU count and runs
// it over the whole trace — sharded across Options.Shards protocol cores
// when Shards > 1, single-goroutine otherwise; results are bit-identical
// either way.
func SimulateTrace(scheme string, t *trace.Trace, opts Options) (*Result, error) {
	var res *Result
	var err error
	if opts.Shards > 1 {
		res, err = SimulateSharded(func() (core.Protocol, error) {
			return core.NewByName(scheme, t.CPUs)
		}, t.Iterator(), opts)
	} else {
		var p core.Protocol
		if p, err = core.NewByName(scheme, t.CPUs); err != nil {
			return nil, err
		}
		res, err = Simulate(p, t.Iterator(), opts)
	}
	if err != nil {
		return nil, err
	}
	res.Trace = t.Name
	return res, nil
}

// Merge combines results of the same scheme over different traces into an
// aggregate (totals are summed, so per-reference metrics become
// reference-weighted averages, the same averaging Table 4 uses).
func Merge(results ...*Result) (*Result, error) {
	if len(results) == 0 {
		return nil, fmt.Errorf("sim: nothing to merge")
	}
	out := &Result{
		Scheme:  results[0].Scheme,
		Trace:   results[0].Trace,
		Tallies: make(map[string]*bus.Tally),
	}
	for name, t := range results[0].Tallies {
		out.Tallies[name] = bus.NewTally(t.Model)
	}
	if len(results[0].NetTallies) > 0 {
		out.NetTallies = make(map[string]*network.Tally)
		for name, t := range results[0].NetTallies {
			out.NetTallies[name] = network.NewTally(t.Topo)
		}
	}
	for i, r := range results {
		if r.Scheme != out.Scheme {
			return nil, fmt.Errorf("sim: merging %s into %s", r.Scheme, out.Scheme)
		}
		if i > 0 {
			out.Trace += "+" + r.Trace
		}
		out.Counts.AddCounts(r.Counts)
		out.InvalClean.AddHist(r.InvalClean)
		out.HoldersAtInval.AddHist(r.HoldersAtInval)
		out.Broadcasts += r.Broadcasts
		out.SeqInvals += r.SeqInvals
		out.ForcedInvals += r.ForcedInvals
		out.WriteBacks += r.WriteBacks
		out.ColdMisses += r.ColdMisses
		out.CoherenceMisses += r.CoherenceMisses
		out.CapacityMisses += r.CapacityMisses
		for name, t := range r.Tallies {
			dst := out.Tallies[name]
			if dst == nil {
				return nil, fmt.Errorf("sim: model %q missing from first result", name)
			}
			dst.Merge(t)
		}
		// The reverse mismatch — the first result priced a model this one
		// did not — would otherwise merge silently and skew the
		// reference-weighted averages (the missing tally's Refs never
		// arrive).
		if len(r.Tallies) != len(out.Tallies) {
			return nil, fmt.Errorf("sim: result %q has %d cost models, first has %d",
				r.Trace, len(r.Tallies), len(out.Tallies))
		}
		for name, t := range r.NetTallies {
			dst := out.NetTallies[name]
			if dst == nil {
				return nil, fmt.Errorf("sim: topology %q missing from first result", name)
			}
			dst.Merge(t)
		}
		if len(r.NetTallies) != len(out.NetTallies) {
			return nil, fmt.Errorf("sim: result %q has %d topologies, first has %d",
				r.Trace, len(r.NetTallies), len(out.NetTallies))
		}
	}
	return out, nil
}
