// Package core implements the cache-coherence protocol engines evaluated in
// the paper: the directory schemes of the Dir_i X taxonomy (Dir1NB, DiriNB
// including the full-map DirNNB, Dir0B, DiriB including Dir1B, Yen–Fu),
// the Section 6 coarse-vector directory DirCV, the snoopy baselines
// (write-through-with-invalidate and Dragon) and the related-work
// comparators (Berkeley, MESI, Firefly).
//
// An engine is a state-change specification: fed a time-ordered reference
// stream, it classifies every reference into the Table 4 event taxonomy and
// reports the coherence actions taken (invalidations, write-backs,
// broadcasts, directory queries). It deliberately knows nothing about bus
// timing — costs are applied afterwards by internal/bus, mirroring the
// paper's separation between event frequencies and hardware cost models.
//
// All of those schemes model the paper's infinite caches — a block leaves
// a cache only through coherence actions, never through replacement — and
// run on one engine (engine.go) over one 16-byte per-block state. The
// engine owns the loops, the hit tests and the miss classification; a
// scheme states its plain write hit as data (the flags a sole holder's
// block needs and the flags the write sets) and supplies one step function
// for the few per cent of references that are not plain: their coherence
// actions, next state and Checker calls. FiniteDirNNB is DirNNB's engine
// plus replacement; it keeps its own Access, because every hit changes
// LRU order, so no reference is plain to the shared loops. The Dir1NB
// specification, a test oracle, keeps its own Access too.
package core

import (
	"fmt"
	"math/bits"

	"dirsim/internal/event"
	"dirsim/internal/trace"
)

// MaxCPUs is the largest processor count the engines support; holder sets
// are single-word bitsets.
const MaxCPUs = 64

// Protocol is a coherence state machine over a fixed set of caches.
// Implementations are not safe for concurrent use; run one trace through
// one engine at a time.
type Protocol interface {
	// Name returns the scheme's name in the paper's notation
	// (e.g. "Dir1NB", "Dir0B", "WTI", "Dragon").
	Name() string
	// CPUs returns the number of caches the engine simulates.
	CPUs() int
	// Access applies one reference and returns its classification and
	// the coherence actions it triggered.
	Access(r trace.Ref) event.Result
	// CheckInvariants validates the engine's internal consistency (for
	// example: a dirty block has exactly one holder). It is cheap enough
	// to call periodically from tests.
	CheckInvariants() error
}

// Batcher is implemented by engines with a data-oriented inner loop: they
// classify a whole batch of references without per-reference interface
// dispatch. Semantics must be identical to calling Access on each
// reference in order — the equivalence suites assert exactly that. refs
// is read-only and must not be retained past the call: it may be a
// window onto a trace that other simulations are reading.
type Batcher interface {
	AccessBatch(refs []trace.Ref, out []event.Result) []event.Result
}

// AccessBatch applies every reference in refs to p in order, appending
// each classification to out and returning the extended slice. It is the
// batch-friendly form of the Access loop: callers reuse one results
// buffer (pass out[:0]) so a simulation's inner loop performs no
// per-reference allocation, and the single call site keeps the
// ref-fetch/classify stage separate from whatever accounting follows.
// Engines that implement Batcher get their batched loop called directly.
func AccessBatch(p Protocol, refs []trace.Ref, out []event.Result) []event.Result {
	if b, ok := p.(Batcher); ok {
		return b.AccessBatch(refs, out)
	}
	for _, r := range refs {
		out = append(out, p.Access(r))
	}
	return out
}

// Plain counts, by event type, the references of a batch that changed no
// state: instruction fetches, read hits, the writes a scheme's write-hit
// rule takes, and Dragon's repeat updates by a shared block's owner. They
// are the bulk of any trace, and every reference counted under one type
// had the same outcome, Outcome[type] — free for most, a write-through or
// an update word for WTI's and Dragon's writes — so a simulation needs
// their number and that outcome, and prices each type once. An outcome
// carries no Holders, so no type Figure 1 observes is ever counted.
type Plain struct {
	N       [event.NumTypes]int64
	Outcome [event.NumTypes]event.Result
}

// quietOutcomes is the Plain.Outcome of an engine whose counted results
// take no action: each type alone.
var quietOutcomes = func() (o [event.NumTypes]event.Result) {
	for t := range o {
		o[t].Type = event.Type(t)
	}
	return o
}()

// Sparser is implemented by engines that recognise a plain reference
// before classifying it: their loop counts it and moves on, and only the
// references that changed state are materialised as results. Semantics
// must be identical to Access on each reference in order, with the
// counted results left out and each equal to its type's Plain.Outcome —
// TestSparseMatchesAccess asserts exactly that. As for Batcher, refs is
// read-only and must not be retained.
type Sparser interface {
	AccessSparse(refs []trace.Ref, plain *Plain, out []event.Result) []event.Result
}

// AccessSparse applies every reference in refs to p in order. Plain
// references are added to plain.N by type, and plain.Outcome set to their
// outcomes; the result of every other reference — misses, invalidations,
// write-backs, control traffic: a few per cent of a trace — is appended
// to out, in order, and the extended slice returned. Engines that
// implement Sparser get their own loop; every other engine, and any
// wrapper that only knows AccessBatch, goes through sparseFromDense,
// which counts only results that take no action. refs is read-only and
// is not retained: sim.Simulate passes a window onto the trace itself.
func AccessSparse(p Protocol, refs []trace.Ref, plain *Plain, out []event.Result) []event.Result {
	if s, ok := p.(Sparser); ok {
		return s.AccessSparse(refs, plain, out)
	}
	return sparseFromDense(p, refs, plain, out)
}

// sparseFromDense is the fallback behind AccessSparse. An engine with only
// Access is called per reference and each result counted or appended as it
// arrives; a Batcher (a wrapper that observes batches) still gets exactly
// one AccessBatch, its plain results counted and squeezed out in place.
// Either way only the results that take no action are counted: an
// engine's other outcomes are not known here, so a WTI write hit behind a
// wrapper travels as a result and is priced as one.
func sparseFromDense(p Protocol, refs []trace.Ref, plain *Plain, out []event.Result) []event.Result {
	plain.Outcome = quietOutcomes
	b, ok := p.(Batcher)
	if !ok {
		for _, r := range refs {
			if res := p.Access(r); res.Plain() {
				plain.N[res.Type]++
			} else {
				out = append(out, res)
			}
		}
		return out
	}
	n := len(out)
	out = b.AccessBatch(refs, out)
	for i := n; i < len(out); i++ {
		if res := &out[i]; res.Plain() {
			plain.N[res.Type]++
		} else {
			out[n] = *res
			n++
		}
	}
	return out[:n]
}

// checkCPUs validates a processor count for an engine constructor.
func checkCPUs(ncpu int) {
	if ncpu <= 0 || ncpu > MaxCPUs {
		panic(fmt.Sprintf("core: cpu count %d out of range [1,%d]", ncpu, MaxCPUs))
	}
}

// Set is a bitset of cache indices (one bit per CPU, up to MaxCPUs).
type Set uint64

// Has reports whether cpu, which is below MaxCPUs, is in the set. The
// mask spares the engine's loops the test a shift by 64 or more needs.
func (s Set) Has(cpu uint8) bool { return s&(1<<(cpu&63)) != 0 }

// Add returns the set with cpu included.
func (s Set) Add(cpu uint8) Set { return s | 1<<cpu }

// Del returns the set with cpu removed.
func (s Set) Del(cpu uint8) Set { return s &^ (1 << cpu) }

// Count returns the number of caches in the set.
func (s Set) Count() int { return bits.OnesCount64(uint64(s)) }

// Empty reports whether the set has no members.
func (s Set) Empty() bool { return s == 0 }

// Only reports whether cpu, which is below MaxCPUs, is the sole member
// of the set.
func (s Set) Only(cpu uint8) bool { return s == 1<<(cpu&63) }

// First returns the lowest cache index in the set; it panics on an empty
// set (callers check Empty first).
func (s Set) First() uint8 {
	if s == 0 {
		panic("core: First on empty set")
	}
	return uint8(bits.TrailingZeros64(uint64(s)))
}
