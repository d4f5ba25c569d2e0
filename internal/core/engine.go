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
	// fS: the block has been referenced, so a miss on it is not a first
	// reference (rm-first-ref / wm-first-ref).
	fS
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

// A scheme is one protocol stated over the shared block state: its write
// hits that change no state as data, and one function for everything
// else.
type scheme struct {
	name string
	// The write-hit rule: a write by c to a block whose holders are
	// exactly {c} and whose flags include need sets set, makes c the
	// owner and has the outcome hit (WrHitOwn or WrHitLocal; WTI's
	// carries Update, its write-through). Every such write has that one
	// outcome and changes no state the next reference reads, so it is
	// plain: the loops count it in place and the simulator prices the
	// count.
	need, set uint8
	hit       event.Result
	// ownerUpdate extends the rule for an update protocol (Dragon): a
	// write by the owner of a stale block other caches hold too sends
	// them the word and changes no state, so the loops count it as well,
	// as ownerUpdateHit.
	ownerUpdate bool
	// step applies every reference that is not plain: a read miss, a
	// write miss, or a write hit the rules did not take. The engine has
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
	// view is an MRSW variant's pricing when the shared walk can price
	// it (ViewOf); nil for every other scheme.
	view *View
}

// ownerUpdateHit is the outcome of a write the ownerUpdate rule takes,
// Holders aside: the word goes to the other holders by broadcast.
var ownerUpdateHit = event.Result{Type: event.WrHitShared, Update: true, Broadcast: true}

// engine runs any scheme: it owns the only Access, AccessBatch and
// AccessSparse loops of the infinite-cache engines. Both batch loops run
// the read hit (holders.Has(c)) and the scheme's write-hit rules ahead of
// the scheme: a reference that passes is plain, its result the one its
// type always has, and it costs one table lookup and a count
// (AccessSparse, in plainRun) or a store (AccessBatch, in plainTypes).
// What they let through goes through access to apply, as does a CPU out
// of range or an invalid kind, for access to reject; with a Checker
// attached, hits move data too and every reference goes through access.
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

// writeHit applies c's write as the scheme's write-hit rule, if the rule
// takes it.
func (e *engine) writeHit(bl *block, c uint8) bool {
	if !bl.holders.Only(c) || bl.flags&e.need != e.need {
		return false
	}
	bl.flags |= e.set
	bl.owner = c
	return true
}

// repeatUpdate reports whether the ownerUpdate rule takes c's write, one
// writeHit did not take: c owns the stale block, so others hold it too.
func (e *engine) repeatUpdate(bl *block, c uint8) bool {
	return e.ownerUpdate && bl.flags&fD != 0 && bl.owner == c
}

func (e *engine) Access(r trace.Ref) (res event.Result) {
	e.access(&r, &res)
	return res
}

// AccessBatch implements Batcher: each result is classified in place in
// the grown slice, with no per-reference dispatch or copy. plainTypes
// writes the plain results a run at a time; the reference that ends a
// run goes through access.
func (e *engine) AccessBatch(refs []trace.Ref, out []event.Result) []event.Result {
	n := len(out)
	out = slices.Grow(out, len(refs))[:n+len(refs)]
	res := out[n:]
	if e.ck != nil {
		for i := range refs {
			e.access(&refs[i], &res[i])
		}
		return out
	}
	for i := 0; i < len(refs); i++ {
		i += e.plainTypes(refs[i:], res[i:])
		if i < len(refs) {
			e.access(&refs[i], &res[i])
		}
	}
	return out
}

// AccessSparse implements Sparser. plainRun takes the plain references
// a run at a time; a reference that ends a run because its page is not
// in its recent slot has the page loaded and goes back to plainRun, and
// any other goes through access.
func (e *engine) AccessSparse(refs []trace.Ref, plain *Plain, out []event.Result) []event.Result {
	if e.ck != nil {
		return sparseFromDense(e, refs, plain, out)
	}
	plain.Outcome = quietOutcomes
	plain.Outcome[e.hit.Type] = e.hit
	if e.ownerUpdate {
		plain.Outcome[event.WrHitShared] = ownerUpdateHit
	}
	for {
		k, instrs, wrHits, updates := e.plainRun(refs)
		plain.N[event.Instr] += instrs
		plain.N[event.RdHit] += int64(k) - instrs - wrHits - updates
		plain.N[e.hit.Type] += wrHits
		plain.N[event.WrHitShared] += updates
		if k == len(refs) {
			return out
		}
		r := &refs[k]
		if b := r.Block(); int(r.CPU) < e.ncpu && (r.Kind == trace.Read || r.Kind == trace.Write) && e.blocks.cached(b) == nil {
			e.blocks.load(b)
			refs = refs[k:]
			continue
		}
		refs = refs[k+1:]
		out = append(out, event.Result{})
		e.access(r, &out[len(out)-1])
	}
}

// plainRun takes the plain references at the front of refs — instruction
// fetches, read hits and the writes the scheme's write-hit rules take —
// and returns how many it took: instrs fetches, wrHits writes the
// write-hit rule took, updates writes the ownerUpdate rule took, and
// read hits for the rest. It stops at the first reference that needs
// more: a miss, a write the rules leave to the scheme, a block whose page
// is not in its recent slot, a CPU out of range or an invalid kind. Its
// loop makes no call and keeps three counters and no Plain, so its state
// stays in registers: a loop that spilled to its stack on every
// reference stalled whenever a heap address it read met one of those
// stack slots modulo 4 KiB, and in one build ran three times slower for
// it. The references are read through a pointer because Ref has too
// many fields to live in registers: a copy is a stack store.
func (e *engine) plainRun(refs []trace.Ref) (i int, instrs, wrHits, updates int64) {
	for ; i < len(refs); i++ {
		r := &refs[i]
		c := r.CPU
		if int(c) >= e.ncpu {
			break
		}
		if r.Kind == trace.Instr {
			instrs++
			continue
		}
		bl := e.blocks.cached(trace.BlockOf(r.Addr))
		if bl == nil {
			break
		}
		if r.Kind == trace.Read {
			if !bl.holders.Has(c) {
				break
			}
		} else if r.Kind != trace.Write {
			break
		} else if e.writeHit(bl, c) {
			wrHits++
		} else if e.repeatUpdate(bl, c) {
			updates++
		} else {
			break
		}
	}
	return i, instrs, wrHits, updates
}

// plainTypes is plainRun for AccessBatch: it stops where plainRun stops,
// and writes each plain reference's whole result into out instead of
// counting it.
func (e *engine) plainTypes(refs []trace.Ref, out []event.Result) int {
	out = out[:len(refs)]
	i := 0
	for ; i < len(refs); i++ {
		r := &refs[i]
		if int(r.CPU) >= e.ncpu {
			break
		}
		if r.Kind == trace.Instr {
			out[i] = event.Result{Type: event.Instr}
			continue
		}
		bl := e.blocks.cached(trace.BlockOf(r.Addr))
		if bl == nil {
			break
		}
		if r.Kind == trace.Read {
			if !bl.holders.Has(r.CPU) {
				break
			}
			out[i] = event.Result{Type: event.RdHit}
		} else if r.Kind != trace.Write {
			break
		} else if e.writeHit(bl, r.CPU) {
			out[i] = e.hit
		} else if e.repeatUpdate(bl, r.CPU) {
			out[i] = ownerUpdateHit
			out[i].Holders = int16(bl.holders.Count() - 1)
		} else {
			break
		}
	}
	return i
}

// access classifies one reference into res.
func (e *engine) access(r *trace.Ref, res *event.Result) {
	if int(r.CPU) >= e.ncpu {
		panic(fmt.Sprintf("core: %s: cpu %d out of range [0,%d)", e.name, r.CPU, e.ncpu))
	}
	switch r.Kind {
	case trace.Instr:
		*res = event.Result{Type: event.Instr}
	case trace.Read, trace.Write:
		bl := e.blocks.cached(r.Block())
		if bl == nil {
			bl = e.blocks.load(r.Block())
		}
		e.apply(bl, r.CPU, r.Block(), r.Kind == trace.Write, res)
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
		res.Holders = int16(bl.holders.Count())
		res.Type = bl.miss(write)
	case !write:
		e.ck.ReadHit(c, b)
		res.Type = event.RdHit
		return
	case e.writeHit(bl, c):
		*res = e.hit
		e.ck.Write(c, b)
		if res.Update {
			// A sole holder's update goes only to memory: WTI's
			// write-through.
			e.ck.WriteThrough(c, b)
		}
		return
	default:
		res.Type = event.WrHitClean
		res.Holders = int16(bl.holders.Del(c).Count())
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
