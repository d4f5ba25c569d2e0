package directory

import (
	"cmp"
	"fmt"

	"dirsim/internal/core"
	"dirsim/internal/event"
	"dirsim/internal/trace"
)

// CoarseVector is a directory protocol that stores holder sets as the
// Section 6 coarse ternary-digit code instead of a full bit map. Its
// state-change behaviour is identical to the full-map DirNNB scheme —
// multiple clean readers, one dirty writer, sequential directed
// invalidations, never a broadcast — but invalidations go to every cache
// the code *names*, which is a superset of the caches that actually hold
// the block. The overshoot (wasted invalidation messages) is the price of
// squeezing the entry into 2·log2(n)+1 bits, and is what the §6 coarse
// experiment measures.
type CoarseVector struct {
	ncpu   int
	blocks core.BlockTable[cvBlock]

	// Wasted counts invalidation messages sent to caches that held no
	// copy; Useful counts those that did.
	Wasted, Useful int64

	checker *core.Checker
}

// cvBlock is one directory entry; the zero value (no holders, the empty
// code) is a block no cache has referenced.
type cvBlock struct {
	holders core.Set
	code    Code
	dirty   bool
	owner   uint8
	seen    bool
}

// NewCoarseVector returns a coarse-vector directory engine for ncpu
// caches.
func NewCoarseVector(ncpu int) *CoarseVector {
	if ncpu <= 0 || ncpu > core.MaxCPUs {
		panic(fmt.Sprintf("directory: cpu count %d out of range", ncpu))
	}
	return &CoarseVector{ncpu: ncpu}
}

// Name implements core.Protocol.
func (p *CoarseVector) Name() string { return "DirCV" }

// CPUs implements core.Protocol.
func (p *CoarseVector) CPUs() int { return p.ncpu }

// SetChecker attaches a value-coherence checker (tests only).
func (p *CoarseVector) SetChecker(c *core.Checker) { p.checker = c }

// first marks the block referenced and reports whether this was the first
// reference to it.
func (bl *cvBlock) first() bool {
	first := !bl.seen
	bl.seen = true
	return first
}

// Access implements core.Protocol.
func (p *CoarseVector) Access(r trace.Ref) event.Result {
	if int(r.CPU) >= p.ncpu {
		panic(fmt.Sprintf("directory: DirCV: cpu %d out of range [0,%d)", r.CPU, p.ncpu))
	}
	switch r.Kind {
	case trace.Instr:
		return event.Result{Type: event.Instr}
	case trace.Read:
		return p.read(r.CPU, r.Block())
	case trace.Write:
		return p.write(r.CPU, r.Block())
	}
	panic(fmt.Sprintf("directory: DirCV: invalid reference kind %d", r.Kind))
}

func (p *CoarseVector) read(c uint8, b trace.Block) event.Result {
	bl := p.blocks.At(b)
	if bl.holders.Has(c) {
		p.checker.ReadHit(c, b)
		return event.Result{Type: event.RdHit}
	}
	first := bl.first()
	res := event.Result{Holders: bl.holders.Count()}
	switch {
	case bl.dirty:
		// The flush request is directed exactly (a dirty block's code
		// names one cache), so no invalidation message is counted; the
		// owner keeps a clean copy, as in DirNNB.
		res.Type = event.RdMissDirty
		res.WriteBack = true
		res.CacheSupply = true
		p.checker.WriteBack(bl.owner, b)
		p.checker.FillFromCache(c, bl.owner, b)
		bl.dirty = false
	case !bl.holders.Empty():
		res.Type = event.RdMissClean
		p.checker.FillFromMemory(c, b)
	case first:
		res.Type = event.RdMissFirst
		p.checker.FillFromMemory(c, b)
	default:
		res.Type = event.RdMissMem
		p.checker.FillFromMemory(c, b)
	}
	bl.holders = bl.holders.Add(c)
	bl.code = bl.code.Add(c)
	return res
}

func (p *CoarseVector) write(c uint8, b trace.Block) event.Result {
	bl := p.blocks.At(b)
	var res event.Result
	switch {
	case bl.dirty && bl.owner == c:
		res.Type = event.WrHitOwn
		p.checker.Write(c, b)
		return res
	case bl.holders.Has(c):
		res.Type = event.WrHitClean
		res.Holders = bl.holders.Del(c).Count()
		res.DirCheck = true
		res.Inval = p.invalidateNamed(bl, c, b)
		p.checker.Write(c, b)
	default:
		first := bl.first()
		res.Holders = bl.holders.Count()
		switch {
		case bl.dirty:
			res.Type = event.WrMissDirty
			res.WriteBack = true
			res.CacheSupply = true
			res.Inval = 1
			p.Useful++
			p.checker.WriteBack(bl.owner, b)
			p.checker.FillFromCache(c, bl.owner, b)
			p.checker.Invalidate(bl.owner, b)
		case !bl.holders.Empty():
			res.Type = event.WrMissClean
			p.checker.FillFromMemory(c, b)
			res.Inval = p.invalidateNamed(bl, c, b)
		case first:
			res.Type = event.WrMissFirst
			p.checker.FillFromMemory(c, b)
		default:
			res.Type = event.WrMissMem
			p.checker.FillFromMemory(c, b)
		}
		p.checker.Write(c, b)
	}
	bl.holders = 0
	bl.holders = bl.holders.Add(c)
	bl.dirty = true
	bl.owner = c
	bl.code = CodeOf(c)
	return res
}

// invalidateNamed sends invalidations to every cache the code names except
// the writer, counting useful and wasted messages, and clears the victims
// from the holder set.
func (p *CoarseVector) invalidateNamed(bl *cvBlock, writer uint8, b trace.Block) int {
	sent := 0
	for _, v := range bl.code.Members(p.ncpu, nil) {
		if v == writer {
			continue
		}
		sent++
		if bl.holders.Has(v) {
			p.Useful++
			p.checker.Invalidate(v, b)
			bl.holders = bl.holders.Del(v)
		} else {
			p.Wasted++
		}
	}
	return sent
}

// CheckInvariants implements core.Protocol: the code must always cover the
// holder set, and dirty blocks must have a single holder.
func (p *CoarseVector) CheckInvariants() error {
	return cmp.Or(p.blocks.Each(func(b trace.Block, bl *cvBlock) error {
		if err := bl.code.Validate(); err != nil {
			return err
		}
		for _, h := range bl.holders.Members(nil) {
			if !bl.code.Covers(h) {
				return fmt.Errorf("directory: block %#x holder %d not covered by code %s", b, h, bl.code)
			}
		}
		if bl.dirty && !bl.holders.Only(bl.owner) {
			return fmt.Errorf("directory: block %#x dirty with holders %b", b, bl.holders)
		}
		return nil
	}), p.checker.Err())
}

// Overshoot returns the fraction of invalidation messages that were
// wasted on caches holding no copy (0 when no invalidations were sent).
func (p *CoarseVector) Overshoot() float64 {
	total := p.Wasted + p.Useful
	if total == 0 {
		return 0
	}
	return float64(p.Wasted) / float64(total)
}

var _ core.Protocol = (*CoarseVector)(nil)
var _ core.CheckerSetter = (*CoarseVector)(nil)
