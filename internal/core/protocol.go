// Package core implements the cache-coherence protocol engines evaluated in
// the paper: the directory schemes of the Dir_i X taxonomy (Dir1NB, DiriNB
// including the full-map DirNNB, Dir0B, DiriB including Dir1B) and the
// snoopy baselines (write-through-with-invalidate and Dragon).
//
// An engine is a state-change specification: fed a time-ordered reference
// stream, it classifies every reference into the Table 4 event taxonomy and
// reports the coherence actions taken (invalidations, write-backs,
// broadcasts, directory queries). It deliberately knows nothing about bus
// timing — costs are applied afterwards by internal/bus, mirroring the
// paper's separation between event frequencies and hardware cost models.
//
// All engines model the paper's infinite caches: a block leaves a cache
// only through coherence actions, never through replacement. The finite
// cache substrate in internal/cache is wired in by the extension studies.
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
// reference in order — the equivalence suites assert exactly that.
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

// checkCPUs validates a processor count for an engine constructor.
func checkCPUs(ncpu int) {
	if ncpu <= 0 || ncpu > MaxCPUs {
		panic(fmt.Sprintf("core: cpu count %d out of range [1,%d]", ncpu, MaxCPUs))
	}
}

// Set is a bitset of cache indices (one bit per CPU, up to MaxCPUs).
type Set uint64

// Has reports whether cpu is in the set.
func (s Set) Has(cpu uint8) bool { return s&(1<<cpu) != 0 }

// Add returns the set with cpu included.
func (s Set) Add(cpu uint8) Set { return s | 1<<cpu }

// Del returns the set with cpu removed.
func (s Set) Del(cpu uint8) Set { return s &^ (1 << cpu) }

// Count returns the number of caches in the set.
func (s Set) Count() int { return bits.OnesCount64(uint64(s)) }

// Empty reports whether the set has no members.
func (s Set) Empty() bool { return s == 0 }

// Only reports whether cpu is the sole member of the set.
func (s Set) Only(cpu uint8) bool { return s == 1<<cpu }

// First returns the lowest cache index in the set; it panics on an empty
// set (callers check Empty first).
func (s Set) First() uint8 {
	if s == 0 {
		panic("core: First on empty set")
	}
	return uint8(bits.TrailingZeros64(uint64(s)))
}

// Members appends the set's cache indices to dst and returns it.
func (s Set) Members(dst []uint8) []uint8 {
	for i := uint8(0); s != 0; i++ {
		if s&1 != 0 {
			dst = append(dst, i)
		}
		s >>= 1
	}
	return dst
}
