package core

import (
	"cmp"
	"fmt"

	"dirsim/internal/event"
	"dirsim/internal/trace"
)

// dir1nbTable is the data-oriented Dir1NB engine: the scheme's entire
// state machine compiled into lookup tables so the batched inner loop does
// no interface dispatch and no branch tree per reference.
//
// Per-block state is three flag bits plus the holder index packed into one
// uint16 in the shared BlockTable (the zero value is exactly the "never
// referenced" state). Each reference builds a 5-bit situation key —
//
//	bit 0  held   (some cache holds the block)
//	bit 1  dirty  (the holder's copy is modified)
//	bit 2  seen   (the block has been referenced before)
//	bit 3  own    (the holder is the referencing CPU)
//	bit 4  write  (the reference is a write)
//
// — and the key indexes two precomputed tables: the Table 4 classification
// with its coherence actions (d1tRes) and the state transition as an
// and/or/holder mask triple, so the update is
//
//	state' = state&and | or | cpu<<8&holderMask
//
// with no protocol branches at all. The method-dispatch engine behind
// NewDir1NBSpec remains the specification; TestDir1NBTableMatchesSpec holds
// the two bit-identical over random and standard reference streams.
type dir1nbTable struct {
	ncpu   int
	blocks BlockTable[uint16]

	Checker *Checker
}

// Packed per-block state bits. Bits 8..13 hold the holder's CPU index
// (MaxCPUs is 64, so six bits suffice and uint16(cpu)<<8 cannot overflow).
const (
	d1tHeld        = 1 << 0
	d1tDirty       = 1 << 1
	d1tSeen        = 1 << 2
	d1tHolderShift = 8
	d1tHolderBits  = 0x3F << d1tHolderShift
)

// Situation-key bits (the low three mirror the state bits on purpose: the
// key starts as state&7).
const (
	d1tKeyOwn   = 1 << 3
	d1tKeyWrite = 1 << 4
	d1tKeys     = 1 << 5
)

// The precomputed tables: per-key classification and transition masks.
var (
	d1tRes        [d1tKeys]event.Result
	d1tAnd, d1tOr [d1tKeys]uint16
	d1tHolderMask [d1tKeys]uint16
)

// d1tHit reports whether a situation key is a hit: the referencing CPU is
// the holder. Its result is RdHit or WrHitOwn with no action attached.
func d1tHit(key uint16) bool { return key&d1tHeld != 0 && key&d1tKeyOwn != 0 }

func init() {
	for key := 0; key < d1tKeys; key++ {
		held := key&d1tHeld != 0
		dirty := key&d1tDirty != 0
		seen := key&d1tSeen != 0
		write := key&d1tKeyWrite != 0

		var res event.Result
		if d1tHit(uint16(key)) {
			// Hit: the copy is exclusive by construction, so even a
			// write to a clean block just sets the local dirty bit.
			if write {
				res.Type = event.WrHitOwn
				d1tOr[key] = d1tDirty
			} else {
				res.Type = event.RdHit
			}
			d1tAnd[key] = 0xFFFF
			d1tRes[key] = res
			continue
		}
		// Miss: steal the block from the holder, if any. The new state is
		// fully determined — held, seen, dirty iff writing, holder = cpu.
		switch {
		case held && dirty:
			res.Type = event.RdMissDirty
			if write {
				res.Type = event.WrMissDirty
			}
			res.Holders, res.Inval = 1, 1
			res.WriteBack, res.CacheSupply = true, true
		case held:
			res.Type = event.RdMissClean
			if write {
				res.Type = event.WrMissClean
			}
			res.Holders, res.Inval = 1, 1
		default:
			switch {
			case !seen && write:
				res.Type = event.WrMissFirst
			case !seen:
				res.Type = event.RdMissFirst
			case write:
				res.Type = event.WrMissMem
			default:
				res.Type = event.RdMissMem
			}
		}
		d1tAnd[key] = 0
		d1tOr[key] = d1tHeld | d1tSeen
		if write {
			d1tOr[key] |= d1tDirty
		}
		d1tHolderMask[key] = d1tHolderBits
		d1tRes[key] = res
	}
}

// NewDir1NB returns a Dir1NB engine for ncpu caches: the table-driven
// implementation, validated bit-identical against NewDir1NBSpec.
func NewDir1NB(ncpu int) Protocol {
	checkCPUs(ncpu)
	return &dir1nbTable{ncpu: ncpu}
}

func (p *dir1nbTable) Name() string { return "Dir1NB" }
func (p *dir1nbTable) CPUs() int    { return p.ncpu }

// SetChecker attaches a value-coherence checker (tests only). With a
// checker attached the batched loop falls back to per-reference Access so
// data-movement callbacks fire in specification order.
func (p *dir1nbTable) SetChecker(c *Checker) { p.Checker = c }

// AccessBatch implements Batcher: the allocation-free hot loop.
func (p *dir1nbTable) AccessBatch(refs []trace.Ref, out []event.Result) []event.Result {
	if p.Checker != nil {
		for _, r := range refs {
			out = append(out, p.Access(r))
		}
		return out
	}
	ncpu := p.ncpu
	for _, r := range refs {
		var write uint16
		switch r.Kind {
		case trace.Instr:
			out = append(out, event.Result{Type: event.Instr})
			continue
		case trace.Read:
		case trace.Write:
			write = d1tKeyWrite
		default:
			panic(fmt.Sprintf("core: Dir1NB: invalid reference kind %d", r.Kind))
		}
		if int(r.CPU) >= ncpu {
			panic(fmt.Sprintf("core: Dir1NB: cpu %d out of range [0,%d)", r.CPU, ncpu))
		}
		slot := p.blocks.At(r.Block())
		st := *slot

		key := st&7 | write
		if st&d1tHeld != 0 && uint8(st>>d1tHolderShift) == r.CPU {
			key |= d1tKeyOwn
		}
		out = append(out, d1tRes[key])
		*slot = st&d1tAnd[key] | d1tOr[key] |
			uint16(r.CPU)<<d1tHolderShift&d1tHolderMask[key]
	}
	return out
}

// AccessSparse implements Sparser: AccessBatch's loop, except that an
// instruction fetch or a hit is counted under its type instead of being
// copied out of the table.
func (p *dir1nbTable) AccessSparse(refs []trace.Ref, plain *Plain, out []event.Result) []event.Result {
	if p.Checker != nil {
		return sparseFromDense(p, refs, plain, out)
	}
	ncpu := p.ncpu
	for _, r := range refs {
		var write uint16
		switch r.Kind {
		case trace.Instr:
			plain[event.Instr]++
			continue
		case trace.Read:
		case trace.Write:
			write = d1tKeyWrite
		default:
			panic(fmt.Sprintf("core: Dir1NB: invalid reference kind %d", r.Kind))
		}
		if int(r.CPU) >= ncpu {
			panic(fmt.Sprintf("core: Dir1NB: cpu %d out of range [0,%d)", r.CPU, ncpu))
		}
		slot := p.blocks.At(r.Block())
		st := *slot

		key := st&7 | write
		if st&d1tHeld != 0 && uint8(st>>d1tHolderShift) == r.CPU {
			key |= d1tKeyOwn
		}
		*slot = st&d1tAnd[key] | d1tOr[key] |
			uint16(r.CPU)<<d1tHolderShift&d1tHolderMask[key]
		if d1tHit(key) {
			plain[d1tRes[key].Type]++
			continue
		}
		out = append(out, d1tRes[key])
	}
	return out
}

func (p *dir1nbTable) Access(r trace.Ref) event.Result {
	var write uint16
	switch r.Kind {
	case trace.Instr:
		return event.Result{Type: event.Instr}
	case trace.Read:
	case trace.Write:
		write = d1tKeyWrite
	default:
		panic(fmt.Sprintf("core: Dir1NB: invalid reference kind %d", r.Kind))
	}
	if int(r.CPU) >= p.ncpu {
		panic(fmt.Sprintf("core: Dir1NB: cpu %d out of range [0,%d)", r.CPU, p.ncpu))
	}
	b := r.Block()
	slot := p.blocks.At(b)
	st := *slot

	key := st&7 | write
	own := st&d1tHeld != 0 && uint8(st>>d1tHolderShift) == r.CPU
	if own {
		key |= d1tKeyOwn
	}
	*slot = st&d1tAnd[key] | d1tOr[key] |
		uint16(r.CPU)<<d1tHolderShift&d1tHolderMask[key]

	if p.Checker != nil {
		// Replay the data movement in the same order the specification
		// engine reports it.
		c, holder := r.CPU, uint8(st>>d1tHolderShift)
		isWrite := write != 0
		switch {
		case own:
			if isWrite {
				p.Checker.Write(c, b)
				return d1tRes[key]
			}
			p.Checker.ReadHit(c, b)
			return d1tRes[key]
		case st&d1tHeld != 0 && st&d1tDirty != 0:
			p.Checker.WriteBack(holder, b)
			p.Checker.FillFromCache(c, holder, b)
			p.Checker.Invalidate(holder, b)
		case st&d1tHeld != 0:
			p.Checker.Invalidate(holder, b)
			p.Checker.FillFromMemory(c, b)
		default:
			p.Checker.FillFromMemory(c, b)
		}
		if isWrite {
			p.Checker.Write(c, b)
		}
	}
	return d1tRes[key]
}

func (p *dir1nbTable) CheckInvariants() error {
	// The packed state cannot represent more than one holder, so — as in
	// the specification engine — the only invariant to verify is
	// checker-level value coherence, plus basic state sanity: a dirty or
	// held flag on a block implies the block has been seen.
	return cmp.Or(p.blocks.Each(func(b trace.Block, slot *uint16) error {
		st := *slot
		if st&(d1tHeld|d1tDirty) != 0 && st&d1tSeen == 0 {
			return fmt.Errorf("core: Dir1NB: block %#x held or dirty but never seen", b)
		}
		if st&d1tDirty != 0 && st&d1tHeld == 0 {
			return fmt.Errorf("core: Dir1NB: block %#x dirty but not held", b)
		}
		if int(st>>d1tHolderShift) >= p.ncpu {
			return fmt.Errorf("core: Dir1NB: block %#x holder %d out of range", b, st>>d1tHolderShift)
		}
		return nil
	}), p.Checker.Err())
}
