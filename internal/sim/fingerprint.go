package sim

import (
	"math"
	"sort"
)

// sumHash is FNV-1a folded over 64-bit words, matching trace.Checksum's
// construction.
type sumHash uint64

const (
	sumOffset = 14695981039346656037
	sumPrime  = 1099511628211
)

func (h *sumHash) word(v uint64) {
	*h ^= sumHash(v)
	*h *= sumPrime
}

func (h *sumHash) str(s string) {
	for i := 0; i < len(s); i++ {
		h.word(uint64(s[i]))
	}
	h.word(uint64(len(s)))
}

func (h *sumHash) hist(buckets []int64) {
	h.word(uint64(len(buckets)))
	for _, b := range buckets {
		h.word(uint64(b))
	}
}

// bit is a flag as a word.
func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// count is a no-op: the hash predates the codec and never took map sizes.
func (h *sumHash) count(int) {}

// fieldSink receives a result's fields in the one order walk visits them.
// Fingerprint hashes that order and AppendBinary encodes it, so the two
// cannot disagree about which fields a result has.
type fieldSink interface {
	word(v uint64)
	str(s string)
	hist(buckets []int64)
	// count announces how many entries of a map follow.
	count(n int)
}

// Fingerprint hashes every field of the result — event counts,
// histograms, traffic counters, and all bus and network tallies,
// including the cost-model and topology descriptors each tally carries —
// into 64 bits. Results are pure functions of the reference sequence, so
// a result's fingerprint is stable across executors and batch sizes; the
// execution engine records it when a result enters the cache and, in
// verification mode, revalidates it on every hit, and the distributed
// coordinator revalidates it on every result push, so bytes corrupted
// after the fact (a stray write, a mutated aggregate, a flipped bit in
// flight) are rejected and recomputed instead of served. The descriptor
// fields are covered deliberately: they are not measurements, but they
// ride in the same serialized payload, and a fingerprint that skips them
// would bless a result whose tariffs were silently rewritten. Map-valued
// fields are folded in sorted key order, so the fingerprint does not
// depend on map iteration.
func (r *Result) Fingerprint() uint64 {
	h := sumHash(sumOffset)
	r.walk(&h)
	return uint64(h)
}

// walk visits every field of the result, maps in sorted key order.
// DecodeResult reads the fields back in this order: a field added here
// must be added there, and store.SchemaVersion bumped unless, like the
// miss causes, it is written only where no earlier reader looks.
func (r *Result) walk(s fieldSink) {
	s.str(r.Scheme)
	s.str(r.Trace)
	for _, n := range r.Counts.N {
		s.word(uint64(n))
	}
	s.word(uint64(r.Counts.Total))
	s.hist(r.InvalClean.Buckets)
	s.hist(r.HoldersAtInval.Buckets)
	s.word(uint64(r.Broadcasts))
	s.word(uint64(r.SeqInvals))
	s.word(uint64(r.ForcedInvals))
	s.word(uint64(r.WriteBacks))

	names := make([]string, 0, len(r.Tallies))
	for name := range r.Tallies {
		names = append(names, name)
	}
	sort.Strings(names)
	s.count(len(names))
	for _, name := range names {
		t := r.Tallies[name]
		s.str(name)
		m := t.Model
		s.str(m.Name)
		for _, c := range [...]float64{m.MemAccess, m.CacheAccess, m.WriteBackFill,
			m.WriteWord, m.DirCheck, m.Inval, m.BroadcastInval, m.Q} {
			s.word(math.Float64bits(c))
		}
		s.word(bit(m.DirCheckFree))
		s.word(uint64(t.Refs))
		s.word(uint64(t.Transactions))
		for _, c := range t.Cycles {
			s.word(math.Float64bits(c))
		}
	}

	names = names[:0]
	for name := range r.NetTallies {
		names = append(names, name)
	}
	sort.Strings(names)
	s.count(len(names))
	for _, name := range names {
		t := r.NetTallies[name]
		s.str(name)
		topo := t.Topo
		s.str(topo.Name)
		s.word(uint64(topo.Nodes))
		s.word(math.Float64bits(topo.AvgDist))
		s.word(uint64(topo.DistSum))
		s.word(uint64(topo.DistPairs))
		s.word(uint64(topo.Diameter))
		s.word(bit(topo.Broadcast))
		s.word(uint64(topo.FloodLinks))
		s.word(uint64(t.CycleUnits))
		s.word(uint64(t.Messages))
		s.word(uint64(t.Floods))
		s.word(uint64(t.Refs))
	}

	// The miss causes come last, and only when one is non-zero: infinite
	// caches hash and encode as they did before the fields existed.
	if r.ColdMisses|r.CoherenceMisses|r.CapacityMisses != 0 {
		s.word(uint64(r.ColdMisses))
		s.word(uint64(r.CoherenceMisses))
		s.word(uint64(r.CapacityMisses))
	}
}
