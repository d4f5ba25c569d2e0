package core

import (
	"cmp"
	"fmt"

	"dirsim/internal/event"
	"dirsim/internal/trace"
)

// firefly implements the DEC Firefly snoopy update protocol (Thacker &
// Stewart, the paper's reference [3]). Like Dragon it updates sharers
// instead of invalidating them, but writes to shared blocks also go
// through to memory, so memory is stale only for blocks a single cache
// holds dirty. A miss is supplied by the caches when the shared line is
// asserted, by memory otherwise.
type firefly struct {
	ncpu   int
	blocks BlockTable[fireflyBlock]

	Checker *Checker
}

type fireflyBlock struct {
	holders Set
	// stale reports that memory lags the (sole) holder's copy; a shared
	// write refreshes memory, so stale implies one holder.
	stale bool
	owner uint8
	seenBit
}

// NewFirefly returns a Firefly engine for ncpu caches.
func NewFirefly(ncpu int) Protocol {
	checkCPUs(ncpu)
	return &firefly{ncpu: ncpu}
}

func (p *firefly) Name() string { return "Firefly" }
func (p *firefly) CPUs() int    { return p.ncpu }

// SetChecker attaches a value-coherence checker (tests only).
func (p *firefly) SetChecker(c *Checker) { p.Checker = c }

func (p *firefly) Access(r trace.Ref) event.Result {
	if int(r.CPU) >= p.ncpu {
		panic(fmt.Sprintf("core: Firefly: cpu %d out of range [0,%d)", r.CPU, p.ncpu))
	}
	switch r.Kind {
	case trace.Instr:
		return event.Result{Type: event.Instr}
	case trace.Read:
		return p.read(r.CPU, r.Block())
	case trace.Write:
		return p.write(r.CPU, r.Block())
	}
	panic(fmt.Sprintf("core: Firefly: invalid reference kind %d", r.Kind))
}

func (p *firefly) fill(bl *fireflyBlock, c uint8, b trace.Block, res *event.Result) {
	res.Holders = bl.holders.Count()
	switch {
	case bl.stale:
		// The dirty holder supplies and writes memory back in the
		// same transaction (Firefly semantics); everyone ends shared.
		res.CacheSupply = true
		res.WriteBack = true
		p.Checker.WriteBack(bl.owner, b)
		p.Checker.FillFromCache(c, bl.owner, b)
		bl.stale = false
	case !bl.holders.Empty():
		res.CacheSupply = true
		p.Checker.FillFromCache(c, bl.holders.First(), b)
	default:
		p.Checker.FillFromMemory(c, b)
	}
	bl.holders = bl.holders.Add(c)
}

func (p *firefly) read(c uint8, b trace.Block) event.Result {
	bl := p.blocks.At(b)
	if bl.holders.Has(c) {
		p.Checker.ReadHit(c, b)
		return event.Result{Type: event.RdHit}
	}
	first := bl.touch()
	var res event.Result
	switch {
	case bl.stale:
		res.Type = event.RdMissDirty
	case !bl.holders.Empty():
		res.Type = event.RdMissClean
	case first:
		res.Type = event.RdMissFirst
	default:
		res.Type = event.RdMissMem
	}
	p.fill(bl, c, b, &res)
	return res
}

func (p *firefly) write(c uint8, b trace.Block) event.Result {
	bl := p.blocks.At(b)
	if bl.holders.Has(c) {
		others := bl.holders.Del(c)
		p.Checker.Write(c, b)
		if others.Empty() {
			// Exclusive: write locally, memory goes stale.
			bl.stale = true
			bl.owner = c
			return event.Result{Type: event.WrHitLocal}
		}
		// Shared: the update goes to the sharers AND to memory
		// (write-through on shared data — the Firefly difference from
		// Dragon), so memory stays current.
		p.Checker.UpdateSharers(b)
		p.Checker.WriteThrough(c, b)
		bl.stale = false
		return event.Result{
			Type:      event.WrHitShared,
			Holders:   others.Count(),
			Broadcast: true,
			Update:    true,
		}
	}
	first := bl.touch()
	var res event.Result
	switch {
	case bl.stale:
		res.Type = event.WrMissDirty
	case !bl.holders.Empty():
		res.Type = event.WrMissClean
	case first:
		res.Type = event.WrMissFirst
	default:
		res.Type = event.WrMissMem
	}
	p.fill(bl, c, b, &res)
	p.Checker.Write(c, b)
	if others := bl.holders.Del(c); !others.Empty() {
		res.Update = true
		res.Broadcast = true
		p.Checker.UpdateSharers(b)
		p.Checker.WriteThrough(c, b)
		bl.stale = false
	} else {
		bl.stale = true
		bl.owner = c
	}
	return res
}

func (p *firefly) CheckInvariants() error {
	return cmp.Or(p.blocks.Each(func(b trace.Block, bl *fireflyBlock) error {
		if bl.stale && !bl.holders.Only(bl.owner) {
			return fmt.Errorf("Firefly: block %#x stale with holders %b (owner %d)",
				b, bl.holders, bl.owner)
		}
		return nil
	}), p.Checker.Err())
}
