package core

import (
	"fmt"

	"dirsim/internal/event"
	"dirsim/internal/trace"
)

// NewDir1NB returns a Dir1NB engine for ncpu caches. Dir1NB is the most
// restrictive scheme in the taxonomy: a block may reside in at most one
// cache at a time, so inconsistency is impossible by construction. The
// directory entry is a single pointer to the holding cache. Every miss steals the block: the current holder is invalidated
// (writing back first if dirty) and the requester becomes the sole holder.
// Write hits never consult the directory — the holder is guaranteed
// exclusive — which is why Table 5 notes that directory accesses always
// overlap memory accesses in this scheme.
//
// Dir1NB is the paper's stand-in for simple software-flush consistency as
// well (Section 5.2): spin locks make blocks ping-pong between caches,
// which is exactly the pathology the evaluation exposes.
//
// Every hit is plain: a write hit just sets the holder's dirty bit.
// TestDir1NBMatchesSpec and its neighbours hold the engine bit-identical
// to NewDir1NBSpec.
func NewDir1NB(ncpu int) Protocol {
	return newEngine(ncpu, scheme{name: "Dir1NB", set: fD, hit: event.Result{Type: event.WrHitOwn}, step: dir1nbStep, check: dir1nbCheck})
}

// dir1nbStep steals the block on a miss, the only reference that reaches
// it. The owner field names the holder, dirty or clean.
func dir1nbStep(ck *Checker, bl *block, c uint8, b trace.Block, write bool, res *event.Result) {
	h := bl.owner
	switch {
	case bl.flags&fD != 0:
		res.Inval = 1
		res.WriteBack = true
		res.CacheSupply = true
		ck.WriteBack(h, b)
		ck.FillFromCache(c, h, b)
		ck.Invalidate(h, b)
	case !bl.holders.Empty():
		res.Inval = 1
		ck.Invalidate(h, b)
		ck.FillFromMemory(c, b)
	default:
		ck.FillFromMemory(c, b)
	}
	bl.holders = Set(0).Add(c)
	bl.owner = c
	bl.flags &^= fD
	if write {
		bl.flags |= fD
		ck.Write(c, b)
	}
}

func dir1nbCheck(bl *block) error {
	if bl.holders&^Set(0).Add(bl.owner) != 0 {
		return fmt.Errorf("holders %b beyond the one pointer %d", bl.holders, bl.owner)
	}
	return nil
}

// dir1nb is the method-dispatch Dir1NB engine behind NewDir1NBSpec, on a
// state of its own.
type dir1nb struct {
	ncpu   int
	blocks blockTable[dir1nbBlock]

	Checker *Checker
}

type dir1nbBlock struct {
	held   bool
	holder uint8
	dirty  bool
	seen   bool
}

// NewDir1NBSpec returns the method-dispatch Dir1NB engine. It is the
// scheme's executable specification: one branch per protocol rule, written
// to mirror the prose at NewDir1NB, and sharing no code with the engine
// behind it, which the cross-validation suite holds bit-identical to this
// one over random and standard workloads.
func NewDir1NBSpec(ncpu int) Protocol {
	checkCPUs(ncpu)
	return &dir1nb{ncpu: ncpu}
}

func (p *dir1nb) Name() string { return "Dir1NB" }
func (p *dir1nb) CPUs() int    { return p.ncpu }

// SetChecker attaches a value-coherence checker (tests only).
func (p *dir1nb) SetChecker(c *Checker) { p.Checker = c }

func (p *dir1nb) Access(r trace.Ref) event.Result {
	if int(r.CPU) >= p.ncpu {
		panic(fmt.Sprintf("core: Dir1NB: cpu %d out of range [0,%d)", r.CPU, p.ncpu))
	}
	switch r.Kind {
	case trace.Instr:
		return event.Result{Type: event.Instr}
	case trace.Read:
		return p.access(r.CPU, r.Block(), false)
	case trace.Write:
		return p.access(r.CPU, r.Block(), true)
	}
	panic(fmt.Sprintf("core: Dir1NB: invalid reference kind %d", r.Kind))
}

func (p *dir1nb) access(c uint8, b trace.Block, write bool) event.Result {
	bl := p.blocks.At(b)
	if bl.held && bl.holder == c {
		// Hit. The copy is exclusive, so even a write to a clean block
		// proceeds without a directory query; the local dirty bit is
		// simply set.
		if write {
			p.Checker.Write(c, b)
			bl.dirty = true
			return event.Result{Type: event.WrHitOwn}
		}
		p.Checker.ReadHit(c, b)
		return event.Result{Type: event.RdHit}
	}
	// Miss: steal the block from the holder, if any.
	first := !bl.seen
	bl.seen = true
	var res event.Result
	switch {
	case bl.held && bl.dirty:
		res.Type = event.RdMissDirty
		if write {
			res.Type = event.WrMissDirty
		}
		res.Holders = 1
		res.Inval = 1
		res.WriteBack = true
		res.CacheSupply = true
		p.Checker.WriteBack(bl.holder, b)
		p.Checker.FillFromCache(c, bl.holder, b)
		p.Checker.Invalidate(bl.holder, b)
	case bl.held:
		res.Type = event.RdMissClean
		if write {
			res.Type = event.WrMissClean
		}
		res.Holders = 1
		res.Inval = 1
		p.Checker.Invalidate(bl.holder, b)
		p.Checker.FillFromMemory(c, b)
	default:
		switch {
		case first && write:
			res.Type = event.WrMissFirst
		case first:
			res.Type = event.RdMissFirst
		case write:
			res.Type = event.WrMissMem
		default:
			res.Type = event.RdMissMem
		}
		p.Checker.FillFromMemory(c, b)
	}
	bl.held = true
	bl.holder = c
	bl.dirty = write
	if write {
		p.Checker.Write(c, b)
	}
	return res
}

func (p *dir1nb) CheckInvariants() error {
	// The structure cannot represent more than one holder, so the single
	// invariant to verify is checker-level coherence.
	return p.Checker.Err()
}
