package core

import (
	"cmp"
	"fmt"

	"dirsim/internal/event"
	"dirsim/internal/trace"
)

// mesi implements the Illinois protocol (Papamarcos & Patel, the paper's
// reference [5]) — the four-state snoopy invalidation protocol now known
// as MESI. Relative to the Dir0B/WTI state model it adds the
// exclusive-clean (E) state: a cache that loaded a block no one else held
// may write it silently, with no bus traffic at all. Illinois also
// supplies misses cache-to-cache whenever any cache holds the block; a
// modified supplier writes memory back in the same transaction.
type mesi struct {
	ncpu   int
	blocks BlockTable[mesiBlock]

	Checker *Checker
}

type mesiBlock struct {
	holders Set
	// modified reports an M-state copy (memory stale); exclusive
	// reports an E-state copy. Both imply a single holder, owner.
	modified  bool
	exclusive bool
	owner     uint8
	seenBit
}

// NewMESI returns an Illinois/MESI engine for ncpu caches.
func NewMESI(ncpu int) Protocol {
	checkCPUs(ncpu)
	return &mesi{ncpu: ncpu}
}

func (p *mesi) Name() string { return "MESI" }
func (p *mesi) CPUs() int    { return p.ncpu }

// SetChecker attaches a value-coherence checker (tests only).
func (p *mesi) SetChecker(c *Checker) { p.Checker = c }

func (p *mesi) Access(r trace.Ref) event.Result {
	if int(r.CPU) >= p.ncpu {
		panic(fmt.Sprintf("core: MESI: cpu %d out of range [0,%d)", r.CPU, p.ncpu))
	}
	switch r.Kind {
	case trace.Instr:
		return event.Result{Type: event.Instr}
	case trace.Read:
		return p.read(r.CPU, r.Block())
	case trace.Write:
		return p.write(r.CPU, r.Block())
	}
	panic(fmt.Sprintf("core: MESI: invalid reference kind %d", r.Kind))
}

func (p *mesi) read(c uint8, b trace.Block) event.Result {
	bl := p.blocks.At(b)
	if bl.holders.Has(c) {
		p.Checker.ReadHit(c, b)
		return event.Result{Type: event.RdHit}
	}
	first := bl.touch()
	res := event.Result{Holders: bl.holders.Count()}
	switch {
	case bl.modified:
		// The M copy supplies the requester and flushes memory in the
		// same bus transaction; both end shared.
		res.Type = event.RdMissDirty
		res.CacheSupply = true
		res.WriteBack = true
		p.Checker.WriteBack(bl.owner, b)
		p.Checker.FillFromCache(c, bl.owner, b)
		bl.modified = false
	case !bl.holders.Empty():
		// Illinois supplies clean blocks cache-to-cache too.
		res.Type = event.RdMissClean
		res.CacheSupply = true
		p.Checker.FillFromCache(c, bl.holders.First(), b)
	case first:
		res.Type = event.RdMissFirst
		p.Checker.FillFromMemory(c, b)
	default:
		res.Type = event.RdMissMem
		p.Checker.FillFromMemory(c, b)
	}
	// E state when alone, S otherwise; any second fill kills E.
	wasAlone := bl.holders.Empty()
	bl.holders = bl.holders.Add(c)
	bl.exclusive = wasAlone
	if wasAlone {
		bl.owner = c
	}
	return res
}

func (p *mesi) write(c uint8, b trace.Block) event.Result {
	bl := p.blocks.At(b)
	var res event.Result
	switch {
	case bl.holders.Has(c) && bl.holders.Only(c) && (bl.modified || bl.exclusive):
		// M or E: silent upgrade — the Illinois improvement over
		// Dir0B's directory query and WTI's write-through.
		res.Type = event.WrHitOwn
		p.Checker.Write(c, b)
	case bl.holders.Has(c):
		// S: broadcast an invalidation signal.
		res.Type = event.WrHitClean
		res.Holders = bl.holders.Del(c).Count()
		res.Broadcast = true
		for _, v := range bl.holders.Del(c).Members(nil) {
			p.Checker.Invalidate(v, b)
		}
		p.Checker.Write(c, b)
	default:
		first := bl.touch()
		res.Holders = bl.holders.Count()
		switch {
		case bl.modified:
			res.Type = event.WrMissDirty
			res.CacheSupply = true
			res.WriteBack = true
			res.Broadcast = true
			p.Checker.WriteBack(bl.owner, b)
			p.Checker.FillFromCache(c, bl.owner, b)
			p.Checker.Invalidate(bl.owner, b)
		case !bl.holders.Empty():
			res.Type = event.WrMissClean
			res.CacheSupply = true
			res.Broadcast = true
			p.Checker.FillFromCache(c, bl.holders.First(), b)
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
	bl.modified = true
	bl.exclusive = false
	bl.owner = c
	return res
}

func (p *mesi) CheckInvariants() error {
	return cmp.Or(p.blocks.Each(func(b trace.Block, bl *mesiBlock) error {
		if bl.modified && !bl.holders.Only(bl.owner) {
			return fmt.Errorf("MESI: block %#x modified with holders %b", b, bl.holders)
		}
		if bl.exclusive && bl.holders.Count() != 1 {
			return fmt.Errorf("MESI: block %#x exclusive with %d holders", b, bl.holders.Count())
		}
		if bl.modified && bl.exclusive {
			return fmt.Errorf("MESI: block %#x both M and E", b)
		}
		return nil
	}), p.Checker.Err())
}
