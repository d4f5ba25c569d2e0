package core

import (
	"cmp"
	"fmt"

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
// The engine classifies each miss by why the block was absent (never
// cached, invalidated away, or evicted away) in the Cold / Coherence /
// Capacity counters.
type finiteDir struct {
	ncpu   int
	cfg    cache.Config
	caches []*cache.Cache
	blocks blockTable[block]
	// gone records, per block, which CPUs lost their copy and why.
	gone blockTable[lostCopies]

	// Miss-cause accounting (data misses, first references excluded
	// from Coherence/Capacity by construction).
	Cold, Coherence, Capacity int64

	Checker *Checker
}

// lostCopies is the set of CPUs whose copy of a block was invalidated
// away and the set whose copy was evicted away; a CPU is in at most one,
// and leaves both when it refills the block.
type lostCopies struct {
	invalidated, evicted Set
}

// NewFiniteDirNNB returns a full-map directory engine over per-CPU finite
// caches of the given configuration.
func NewFiniteDirNNB(ncpu int, cfg cache.Config) (Protocol, error) {
	checkCPUs(ncpu)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &finiteDir{
		ncpu:   ncpu,
		cfg:    cfg,
		caches: make([]*cache.Cache, ncpu),
	}
	for i := range p.caches {
		p.caches[i] = cache.New(cfg)
	}
	return p, nil
}

func (p *finiteDir) Name() string { return "FiniteDirNNB" }
func (p *finiteDir) CPUs() int    { return p.ncpu }

// SetChecker attaches a value-coherence checker (tests only).
func (p *finiteDir) SetChecker(c *Checker) { p.Checker = c }

func (p *finiteDir) Access(r trace.Ref) event.Result {
	if int(r.CPU) >= p.ncpu {
		panic(fmt.Sprintf("core: FiniteDirNNB: cpu %d out of range [0,%d)", r.CPU, p.ncpu))
	}
	switch r.Kind {
	case trace.Instr:
		// Instruction traffic stays off the data caches, as in the
		// paper's methodology.
		return event.Result{Type: event.Instr}
	case trace.Read:
		return p.access(r.CPU, r.Block(), false)
	case trace.Write:
		return p.access(r.CPU, r.Block(), true)
	}
	panic(fmt.Sprintf("core: FiniteDirNNB: invalid reference kind %d", r.Kind))
}

func (p *finiteDir) access(c uint8, b trace.Block, write bool) event.Result {
	bl := p.blocks.At(b)
	if bl.holders.Has(c) {
		// Residency and directory state agree by construction; touch
		// the cache to keep LRU order honest.
		p.caches[c].Access(b)
		if !write {
			p.Checker.ReadHit(c, b)
			return event.Result{Type: event.RdHit}
		}
		if bl.flags&fD != 0 && bl.owner == c {
			p.Checker.Write(c, b)
			return event.Result{Type: event.WrHitOwn}
		}
		// Write hit on a clean block: directed invalidations.
		others := bl.holders.Del(c)
		res := event.Result{
			Type:     event.WrHitClean,
			Holders:  others.Count(),
			Inval:    others.Count(),
			DirCheck: true,
		}
		p.invalidate(others, b)
		p.Checker.Write(c, b)
		bl.holders = Set(0).Add(c)
		bl.flags |= fD
		bl.owner = c
		return res
	}
	// Miss. Attribute the cause before refilling.
	res := event.Result{Holders: bl.holders.Count(), Type: bl.miss(write)}
	gone := p.gone.At(b)
	switch {
	case res.Type.IsFirstRef():
		// First reference in the whole trace: uniprocessor cold.
	case gone.invalidated.Has(c):
		p.Coherence++
	case gone.evicted.Has(c):
		p.Capacity++
	default:
		// First touch by this CPU (the block lives elsewhere or was
		// never here): the fetch-into-multiple-caches cost, counted
		// as cold for this cache.
		p.Cold++
	}
	gone.invalidated, gone.evicted = gone.invalidated.Del(c), gone.evicted.Del(c)

	switch {
	case bl.flags&fD != 0:
		if write {
			res.Inval = 1
		}
		res.WriteBack = true
		res.CacheSupply = true
		p.Checker.WriteBack(bl.owner, b)
		p.Checker.FillFromCache(c, bl.owner, b)
		if write {
			p.invalidate(bl.holders, b)
		}
		bl.flags &^= fD
	case !bl.holders.Empty():
		if write {
			res.Inval = bl.holders.Count()
			p.invalidate(bl.holders, b)
		}
		p.Checker.FillFromMemory(c, b)
	default:
		p.Checker.FillFromMemory(c, b)
	}
	// Fill, possibly evicting a victim.
	_, victim, evicted := p.caches[c].Access(b)
	if evicted {
		p.evict(c, victim, &res)
	}
	bl.holders = bl.holders.Add(c)
	if write {
		p.Checker.Write(c, b)
		bl.holders = Set(0).Add(c)
		bl.flags |= fD
		bl.owner = c
	}
	return res
}

// invalidate removes every victim's copy of b from its cache and records
// the loss as coherence-caused.
func (p *finiteDir) invalidate(victims Set, b trace.Block) {
	gone := p.gone.At(b)
	gone.invalidated |= victims
	for _, v := range victims.Members(nil) {
		p.caches[v].Invalidate(b)
		p.Checker.Invalidate(v, b)
	}
}

// evict handles a replacement victim: dirty victims flush to memory,
// clean ones notify the directory; either way the full map stays exact.
func (p *finiteDir) evict(c uint8, victim trace.Block, res *event.Result) {
	vbl := p.blocks.At(victim)
	if vbl.flags&fD != 0 && vbl.owner == c {
		res.EvictWB = true
		p.Checker.WriteBack(c, victim)
		vbl.flags &^= fD
	} else {
		// Replacement notification to the directory.
		res.Control++
	}
	vbl.holders = vbl.holders.Del(c)
	p.Checker.Invalidate(c, victim)
	gone := p.gone.At(victim)
	gone.evicted = gone.evicted.Add(c)
}

// Counters returns the miss-cause accounting: per-cache cold fills,
// coherence (invalidation-caused) misses, and capacity (eviction-caused)
// misses. First-trace-reference misses are in none of the three.
func (p *finiteDir) Counters() (cold, coherence, capacity int64) {
	return p.Cold, p.Coherence, p.Capacity
}

// CheckInvariants verifies the directory map matches cache residency.
func (p *finiteDir) CheckInvariants() error {
	return cmp.Or(p.blocks.Each(func(b trace.Block, bl *block) error {
		for cpu := 0; cpu < p.ncpu; cpu++ {
			inDir := bl.holders.Has(uint8(cpu))
			inCache := p.caches[cpu].Contains(b)
			if inDir != inCache {
				return fmt.Errorf("FiniteDirNNB: block %#x cpu %d: directory=%v cache=%v",
					b, cpu, inDir, inCache)
			}
		}
		if bl.flags&fD != 0 && !bl.holders.Only(bl.owner) {
			return fmt.Errorf("FiniteDirNNB: block %#x dirty with holders %b", b, bl.holders)
		}
		return nil
	}), p.Checker.Err())
}
