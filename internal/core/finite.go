package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"regexp"
	"strconv"
	"strings"

	"dirsim/internal/cache"
	"dirsim/internal/event"
	"dirsim/internal/trace"
)

// finiteDir is the full-map directory scheme (DirNNB) running over
// *finite* set-associative caches instead of the paper's infinite ones.
// Replacement interacts with coherence in two ways the infinite model
// cannot show:
//
//   - a replaced dirty victim must be written back (EvictWB) and a
//     replaced clean victim must notify the directory so the full map
//     stays exact (a one-cycle control message);
//   - some blocks that an invalidation *would* have purged are already
//     gone, so — the paper's footnote 2 — the coherence-related miss
//     component is *smaller* in a finite cache, while capacity misses
//     appear on top.
//
// A DirNNB engine applies every data reference; finiteDir adds what
// replacement needs: LRU order, removal of the copies DirNNB dropped,
// eviction after a fill, and the classification of each miss by why the
// block was absent (never cached, invalidated away, or evicted away) in
// the Cold / Coherence / Capacity counters.
type finiteDir struct {
	dir    *engine
	caches []*cache.Cache
	// gone records, per block, which CPUs lost their copy and why.
	gone blockTable[lostCopies]
	// res is held here because a pointer to a local would escape
	// through the scheme's step func and allocate on every reference.
	res event.Result

	// Miss-cause accounting (data misses, first references excluded
	// from coherence/capacity by construction).
	cold, coherence, capacity int64
}

// lostCopies is the set of CPUs whose copy of a block was invalidated
// away and the set whose copy was evicted away; a CPU is in at most one,
// and leaves both when it refills the block.
type lostCopies struct {
	invalidated, evicted Set
}

// A finite-cache scheme is named FiniteDirNNB:<size><unit><ways>w, e.g.
// FiniteDirNNB:64k2w: per-CPU caches of size bytes (unit b, k or m) with
// ways-way set associativity and a hashed set index. Both are powers of
// two, the size at most MaxFiniteCacheBytes and the ways two digits, so a
// name from outside cannot ask for an unbounded cache.
const (
	finitePrefix        = "finitedirnnb:"
	MaxFiniteCacheBytes = 4 << 20
)

var finiteSuffix = regexp.MustCompile(`^([0-9]{1,7})([bkm])([0-9]{1,2})w$`)

// newFiniteByName builds the engine a lower-case FiniteDirNNB name
// describes, named by its canonical spelling: the size in the largest
// unit that divides it. Its caches allocate their sets on first use, so
// building one just to read its Name stays small at any size.
func newFiniteByName(key string, ncpu int) (Protocol, error) {
	m := finiteSuffix.FindStringSubmatch(key[len(finitePrefix):])
	if m == nil {
		return nil, fmt.Errorf("core: scheme %q is not FiniteDirNNB:<size><b|k|m><ways>w", key)
	}
	size, _ := strconv.Atoi(m[1])
	size <<= 10 * strings.Index("bkm", m[2])
	assoc, _ := strconv.Atoi(m[3])
	cfg := cache.Config{SizeBytes: size, Assoc: assoc, HashIndex: true}
	if size > MaxFiniteCacheBytes || size&(size-1) != 0 {
		return nil, fmt.Errorf("core: %q: size is not a power of two up to %d bytes", key, MaxFiniteCacheBytes)
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: %q: %w", key, err)
	}
	unit := min(bits.TrailingZeros(uint(size))/10, 2)
	name := fmt.Sprintf("FiniteDirNNB:%d%c%dw", size>>(10*unit), "bkm"[unit], assoc)
	p := &finiteDir{dir: newMRSW(ncpu, name, &mrsw{View: View{ptrs: ncpu}}), caches: make([]*cache.Cache, ncpu)}
	for i := range p.caches {
		p.caches[i] = cache.New(cfg)
	}
	return p, nil
}

func (p *finiteDir) Name() string { return p.dir.name }
func (p *finiteDir) CPUs() int    { return p.dir.ncpu }

// SetChecker attaches a value-coherence checker (tests only).
func (p *finiteDir) SetChecker(c *Checker) { p.dir.SetChecker(c) }

func (p *finiteDir) Access(r trace.Ref) event.Result {
	switch {
	case int(r.CPU) >= p.dir.ncpu:
	case r.Kind == trace.Instr:
		// Instruction traffic stays off the data caches, as in the
		// paper's methodology.
		return event.Result{Type: event.Instr}
	case r.Kind == trace.Read, r.Kind == trace.Write:
		return p.access(r.CPU, r.Block(), r.Kind == trace.Write)
	}
	p.dir.access(&r, &p.res) // rejects the reference
	return p.res
}

func (p *finiteDir) access(c uint8, b trace.Block, write bool) event.Result {
	bl := p.dir.blocks.At(b)
	before := bl.holders
	if !before.Has(c) {
		p.attribute(bl, c, b)
	}
	p.dir.apply(bl, c, b, write, &p.res)
	if lost := before.Del(c) &^ bl.holders; !lost.Empty() {
		// The copies DirNNB invalidated leave their caches.
		gone := p.gone.At(b)
		gone.invalidated |= lost
		for ; !lost.Empty(); lost &= lost - 1 {
			p.caches[lost.First()].Invalidate(b)
		}
	}
	// A hit touches c's copy, keeping LRU order honest (residency and
	// directory agree by construction); a miss fills it, possibly
	// evicting a victim.
	if _, victim, evicted := p.caches[c].Access(b); evicted {
		p.evict(c, victim)
	}
	return p.res
}

// attribute counts c's miss on b by why the block was absent.
func (p *finiteDir) attribute(bl *block, c uint8, b trace.Block) {
	gone := p.gone.At(b)
	switch {
	case bl.flags&fS == 0:
		// First reference in the whole trace: uniprocessor cold.
	case gone.invalidated.Has(c):
		p.coherence++
	case gone.evicted.Has(c):
		p.capacity++
	default:
		// First touch by this CPU (the block lives elsewhere or was
		// never here): the fetch-into-multiple-caches cost, counted
		// as cold for this cache.
		p.cold++
	}
	gone.invalidated, gone.evicted = gone.invalidated.Del(c), gone.evicted.Del(c)
}

// evict handles a replacement victim: dirty victims flush to memory,
// clean ones notify the directory; either way the full map stays exact.
func (p *finiteDir) evict(c uint8, victim trace.Block) {
	vbl := p.dir.blocks.At(victim)
	if vbl.flags&fD != 0 && vbl.owner == c {
		p.res.EvictWB = true
		p.dir.ck.WriteBack(c, victim)
		vbl.flags &^= fD
	} else {
		// Replacement notification to the directory.
		p.res.Control++
	}
	vbl.holders = vbl.holders.Del(c)
	p.dir.ck.Invalidate(c, victim)
	gone := p.gone.At(victim)
	gone.evicted = gone.evicted.Add(c)
}

// MissCauses returns a finite-cache engine's per-cache cold fills,
// coherence (invalidation-caused) and capacity (eviction-caused) misses;
// first-trace-reference misses are in none. finite reports whether p is a
// finite-cache engine at all; infinite caches have no miss causes. It is
// also the one test for an engine whose state is not independent per
// block: a finite cache's fill evicts another block from its set, and
// which one depends on every block that maps there, so references to
// disjoint sets of blocks cannot run on separate engines
// (sim.SimulateSharded refuses it).
func MissCauses(p Protocol) (cold, coherence, capacity int64, finite bool) {
	if f, ok := p.(*finiteDir); ok {
		return f.cold, f.coherence, f.capacity, true
	}
	return 0, 0, 0, false
}

// CheckInvariants verifies the directory map matches cache residency,
// then DirNNB's own invariants.
func (p *finiteDir) CheckInvariants() error {
	return cmp.Or(p.dir.blocks.Each(func(b trace.Block, bl *block) error {
		for cpu, c := range p.caches {
			if inDir, inCache := bl.holders.Has(uint8(cpu)), c.Contains(b); inDir != inCache {
				return fmt.Errorf("FiniteDirNNB: block %#x cpu %d: directory=%v cache=%v",
					b, cpu, inDir, inCache)
			}
		}
		return nil
	}), p.dir.CheckInvariants())
}
