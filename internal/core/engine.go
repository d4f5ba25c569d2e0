package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"dirsim/internal/event"
	"dirsim/internal/trace"
)

// block is the global coherence state of one block under every
// infinite-cache scheme: 16 bytes, the zero value being a block no cache
// has referenced.
type block struct {
	holders Set   // caches with a valid copy
	owner   uint8 // the cache that supplies the block while fD is set
	flags   uint8
}

// Block state flags.
const (
	// fD: memory is stale and owner supplies the block — dirty (the MRSW
	// family, Dir1NB), stale (Dragon, Firefly), owned (Berkeley),
	// modified (MESI).
	fD uint8 = 1 << iota
	// fX: MESI's sole copy is exclusive-clean or modified (E or M).
	fX
	// fB: the broadcast bit — Dir_iB after pointer overflow, Dir0B's
	// clean-in-many state.
	fB
	// fS: the block has been referenced, so a miss on it is not a first
	// reference (rm-first-ref / wm-first-ref).
	fS
	// fNever is set on no block: a write-hit rule that needs it never
	// matches.
	fNever
)

// miss records a reference to the block by a cache that holds no copy
// and returns its Table 4 class: dirty elsewhere, clean elsewhere, nowhere
// but seen before, or never referenced. Every scheme classifies a miss
// this way; they differ only in what they do about it.
func (bl *block) miss(write bool) event.Type {
	t := event.RdMissMem
	switch {
	case bl.flags&fD != 0:
		t = event.RdMissDirty
	case !bl.holders.Empty():
		t = event.RdMissClean
	case bl.flags&fS == 0:
		t = event.RdMissFirst
	}
	bl.flags |= fS
	if write {
		// The four write-miss types follow the read-miss ones in order.
		t += event.WrMissFirst - event.RdMissFirst
	}
	return t
}

// A scheme is one protocol stated over the shared block state: its plain
// write hit as data, and one function for everything else.
type scheme struct {
	name string
	// The plain write hit: a write by c to a block whose holders are
	// exactly {c} and whose flags include need sets set, makes c the
	// owner and is classified hit (WrHitOwn or WrHitLocal). It takes no
	// action, so it is plain and the loops count it in place.
	need, set uint8
	hit       event.Type
	// step applies every reference that is not plain: a read miss, a
	// write miss, or a write hit the rule did not take. The engine has
	// classified a miss (res.Type, res.Holders) or set a write hit to
	// WrHitClean with the other holders counted; step supplies the
	// coherence actions, the next state and the Checker calls, and may
	// reclassify a write hit.
	step func(ck *Checker, bl *block, c uint8, b trace.Block, write bool, res *event.Result)
	// sharedDirty lets fD stand with several holders (Dragon, Berkeley);
	// everywhere else a stale block has exactly one holder, its owner.
	sharedDirty bool
	// check, when non-nil, is the scheme's own invariant on one block.
	check func(bl *block) error
}

// engine runs any scheme: it owns the only Access, AccessBatch and
// AccessSparse loops of the infinite-cache engines. Both batch loops run
// the read hit (holders.Has(c)) and the scheme's write-hit rule ahead of
// the scheme: a reference that passes is plain, its whole result its
// type, and it costs one table lookup and a count (AccessSparse) or a
// store (AccessBatch). What they let through goes to apply with the block
// already looked up. A CPU out of range or an invalid kind skips them for
// access to reject; with a Checker attached, hits move data too and every
// reference goes through access.
type engine struct {
	scheme
	ncpu   int
	blocks blockTable[block]
	ck     *Checker
}

func newEngine(ncpu int, s scheme) *engine {
	checkCPUs(ncpu)
	return &engine{scheme: s, ncpu: ncpu}
}

func (e *engine) Name() string { return e.name }
func (e *engine) CPUs() int    { return e.ncpu }

// SetChecker attaches a value-coherence checker (tests only).
func (e *engine) SetChecker(c *Checker) { e.ck = c }

// writeHit applies c's write as the scheme's plain write hit, if the rule
// takes it.
func (e *engine) writeHit(bl *block, c uint8) bool {
	if !bl.holders.Only(c) || bl.flags&e.need != e.need {
		return false
	}
	bl.flags |= e.set
	bl.owner = c
	return true
}

func (e *engine) Access(r trace.Ref) (res event.Result) {
	e.access(r, &res)
	return res
}

// AccessBatch implements Batcher: each result is classified in place in
// the grown slice, with no per-reference dispatch or copy.
func (e *engine) AccessBatch(refs []trace.Ref, out []event.Result) []event.Result {
	n := len(out)
	out = slices.Grow(out, len(refs))[:n+len(refs)]
	for i, r := range refs {
		res := &out[n+i]
		if int(r.CPU) < e.ncpu && e.ck == nil {
			switch r.Kind {
			case trace.Instr:
				*res = event.Result{Type: event.Instr}
				continue
			case trace.Read:
				if bl := e.blocks.At(r.Block()); !bl.holders.Has(r.CPU) {
					e.apply(bl, r.CPU, r.Block(), false, res)
				} else {
					*res = event.Result{Type: event.RdHit}
				}
				continue
			case trace.Write:
				if bl := e.blocks.At(r.Block()); !e.writeHit(bl, r.CPU) {
					e.apply(bl, r.CPU, r.Block(), true, res)
				} else {
					*res = event.Result{Type: e.hit}
				}
				continue
			}
		}
		e.access(r, res)
	}
	return out
}

// AccessSparse implements Sparser.
func (e *engine) AccessSparse(refs []trace.Ref, plain *Plain, out []event.Result) []event.Result {
	if e.ck != nil {
		return sparseFromDense(e, refs, plain, out)
	}
	// Counts stay in a local until the batch ends: a heap store per
	// reference stalled the loop's loads whenever it met one of its stack
	// slots modulo 4 KiB, up to 1.9× slower at some stack depths.
	n := *plain
	for _, r := range refs {
		if int(r.CPU) < e.ncpu {
			switch r.Kind {
			case trace.Instr:
				n[event.Instr]++
				continue
			case trace.Read:
				if bl := e.blocks.At(r.Block()); !bl.holders.Has(r.CPU) {
					out = append(out, event.Result{})
					e.apply(bl, r.CPU, r.Block(), false, &out[len(out)-1])
				} else {
					n[event.RdHit]++
				}
				continue
			case trace.Write:
				if bl := e.blocks.At(r.Block()); !e.writeHit(bl, r.CPU) {
					out = append(out, event.Result{})
					e.apply(bl, r.CPU, r.Block(), true, &out[len(out)-1])
				} else {
					n[e.hit]++
				}
				continue
			}
		}
		out = append(out, event.Result{})
		e.access(r, &out[len(out)-1])
	}
	*plain = n
	return out
}

// access classifies one reference into res.
func (e *engine) access(r trace.Ref, res *event.Result) {
	if int(r.CPU) >= e.ncpu {
		panic(fmt.Sprintf("core: %s: cpu %d out of range [0,%d)", e.name, r.CPU, e.ncpu))
	}
	switch r.Kind {
	case trace.Instr:
		*res = event.Result{Type: event.Instr}
	case trace.Read, trace.Write:
		e.apply(e.blocks.At(r.Block()), r.CPU, r.Block(), r.Kind == trace.Write, res)
	default:
		panic(fmt.Sprintf("core: %s: invalid reference kind %d", e.name, r.Kind))
	}
}

// apply classifies c's read or write of block b, whose state is bl, into
// res: the hits every scheme shares, else the miss class or a write hit
// the rule did not take, handed to the scheme's step.
func (e *engine) apply(bl *block, c uint8, b trace.Block, write bool, res *event.Result) {
	*res = event.Result{}
	switch {
	case !bl.holders.Has(c):
		res.Holders = bl.holders.Count()
		res.Type = bl.miss(write)
	case !write:
		e.ck.ReadHit(c, b)
		res.Type = event.RdHit
		return
	case e.writeHit(bl, c):
		e.ck.Write(c, b)
		res.Type = e.hit
		return
	default:
		res.Type = event.WrHitClean
		res.Holders = bl.holders.Del(c).Count()
	}
	e.step(e.ck, bl, c, b, write, res)
}

// CheckInvariants validates the invariants every scheme shares — a held
// block has been referenced; a stale block's owner holds it, alone
// unless the scheme shares dirty blocks — then the scheme's own.
func (e *engine) CheckInvariants() error {
	return cmp.Or(e.blocks.Each(func(b trace.Block, bl *block) error {
		var err error
		stale := bl.flags&fD != 0
		switch {
		case !bl.holders.Empty() && bl.flags&fS == 0:
			err = errors.New("held but never referenced")
		case stale && !bl.holders.Has(bl.owner):
			err = fmt.Errorf("stale but owner %d holds no copy", bl.owner)
		case stale && !e.sharedDirty && !bl.holders.Only(bl.owner):
			err = fmt.Errorf("dirty with holders %b (owner %d)", bl.holders, bl.owner)
		case e.check != nil:
			err = e.check(bl)
		}
		if err != nil {
			return fmt.Errorf("%s: block %#x %v", e.name, b, err)
		}
		return nil
	}), e.ck.Err())
}
