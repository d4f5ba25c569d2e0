package core

import (
	"cmp"
	"fmt"

	"dirsim/internal/event"
	"dirsim/internal/trace"
)

// berkeley implements the Berkeley Ownership snoopy protocol (Katz,
// Eggers, Wood, Perkins, Sheldon — the paper's reference [7] and the
// subject of its Section 5 cost-model aside). Its distinguishing features
// over Dir0B's state model:
//
//   - A dirty block read by another cache is supplied cache-to-cache by
//     its owner *without* updating memory: the owner moves to an
//     owned-shared state and remains responsible for the data, so memory
//     can stay stale across arbitrarily long read-sharing phases.
//   - The writer's own cache state answers the "do I need to
//     invalidate?" question, so there is no directory and no directory
//     access; invalidations ride a one-cycle bus broadcast.
//
// The paper estimates Berkeley by re-pricing Dir0B's event stream
// (bus.Model.Berkeley); this engine simulates the protocol outright so
// the estimate can be validated against a real state machine.
type berkeley struct {
	ncpu   int
	blocks BlockTable[berkeleyBlock]

	Checker *Checker
}

type berkeleyBlock struct {
	holders Set
	// owned reports that memory is stale and owner must supply the
	// data. Unlike the MRSW engines, an owned block may be shared.
	owned bool
	owner uint8
	seenBit
}

// NewBerkeley returns a Berkeley Ownership engine for ncpu caches.
func NewBerkeley(ncpu int) Protocol {
	checkCPUs(ncpu)
	return &berkeley{ncpu: ncpu}
}

func (p *berkeley) Name() string { return "Berkeley" }
func (p *berkeley) CPUs() int    { return p.ncpu }

// SetChecker attaches a value-coherence checker (tests only).
func (p *berkeley) SetChecker(c *Checker) { p.Checker = c }

func (p *berkeley) Access(r trace.Ref) event.Result {
	if int(r.CPU) >= p.ncpu {
		panic(fmt.Sprintf("core: Berkeley: cpu %d out of range [0,%d)", r.CPU, p.ncpu))
	}
	switch r.Kind {
	case trace.Instr:
		return event.Result{Type: event.Instr}
	case trace.Read:
		return p.read(r.CPU, r.Block())
	case trace.Write:
		return p.write(r.CPU, r.Block())
	}
	panic(fmt.Sprintf("core: Berkeley: invalid reference kind %d", r.Kind))
}

func (p *berkeley) read(c uint8, b trace.Block) event.Result {
	bl := p.blocks.At(b)
	if bl.holders.Has(c) {
		p.Checker.ReadHit(c, b)
		return event.Result{Type: event.RdHit}
	}
	first := bl.touch()
	res := event.Result{Holders: bl.holders.Count()}
	switch {
	case bl.owned:
		// The owner supplies; it keeps ownership (owned-shared) and
		// memory stays stale — no write-back.
		res.Type = event.RdMissDirty
		res.CacheSupply = true
		p.Checker.FillFromCache(c, bl.owner, b)
	case !bl.holders.Empty():
		res.Type = event.RdMissClean
		p.Checker.FillFromMemory(c, b)
	case first:
		res.Type = event.RdMissFirst
		p.Checker.FillFromMemory(c, b)
	default:
		res.Type = event.RdMissMem
		p.Checker.FillFromMemory(c, b)
	}
	bl.holders = bl.holders.Add(c)
	return res
}

func (p *berkeley) write(c uint8, b trace.Block) event.Result {
	bl := p.blocks.At(b)
	var res event.Result
	others := bl.holders.Del(c)
	switch {
	case bl.holders.Has(c) && bl.owned && bl.owner == c && others.Empty():
		// Owned exclusively: silent write.
		res.Type = event.WrHitOwn
		p.Checker.Write(c, b)
	case bl.holders.Has(c):
		// Shared (owned-shared by the writer, owned by another cache,
		// or unowned-clean): broadcast an invalidation. The writer's
		// own state makes the decision — no directory is involved —
		// and Berkeley has no exclusive-clean state, so even a sole
		// unowned copy pays the broadcast.
		res.Type = event.WrHitClean
		res.Holders = others.Count()
		res.Broadcast = true
		for _, v := range others.Members(nil) {
			p.Checker.Invalidate(v, b)
		}
		p.Checker.Write(c, b)
	default:
		first := bl.touch()
		res.Holders = bl.holders.Count()
		switch {
		case bl.owned:
			// Fetch from the owner and invalidate every copy; the
			// broadcast read-for-ownership does both. Memory is
			// not updated.
			res.Type = event.WrMissDirty
			res.CacheSupply = true
			res.Broadcast = true
			p.Checker.FillFromCache(c, bl.owner, b)
			for _, v := range bl.holders.Members(nil) {
				p.Checker.Invalidate(v, b)
			}
		case !bl.holders.Empty():
			res.Type = event.WrMissClean
			res.Broadcast = true
			p.Checker.FillFromMemory(c, b)
			for _, v := range bl.holders.Members(nil) {
				p.Checker.Invalidate(v, b)
			}
		case first:
			res.Type = event.WrMissFirst
			p.Checker.FillFromMemory(c, b)
		default:
			res.Type = event.WrMissMem
			p.Checker.FillFromMemory(c, b)
		}
		p.Checker.Write(c, b)
	}
	bl.holders = 0
	bl.holders = bl.holders.Add(c)
	bl.owned = true
	bl.owner = c
	return res
}

func (p *berkeley) CheckInvariants() error {
	return cmp.Or(p.blocks.Each(func(b trace.Block, bl *berkeleyBlock) error {
		if bl.owned && !bl.holders.Has(bl.owner) {
			return fmt.Errorf("Berkeley: block %#x owned by non-holder %d", b, bl.owner)
		}
		return nil
	}), p.Checker.Err())
}
