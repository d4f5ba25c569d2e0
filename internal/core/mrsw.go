package core

import (
	"fmt"

	"dirsim/internal/event"
	"dirsim/internal/trace"
)

// The multiple-readers/single-writer state-change model is shared — as
// the paper observes in Section 5 — by Dir0B, the sequential
// invalidation schemes DiriNB/DirNNB/DirCV, the limited-pointer-plus-
// broadcast schemes DiriB, Yen–Fu and the snoopy WTI protocol: a clean
// block may live in any number of caches, a written block in exactly
// one. The variants differ only in how invalidations are delivered, in
// how much the directory knows and in whether writes go through to
// memory, so one walk serves them all. A block's holders only grow
// between writes, and a write resets them to the writer, so a variant's
// action on a reference is a function of its Table 4 class, the holders
// before it and the cache that made it — a Step — and a variant is a
// View, a pure function from a Step to its event.Result. The walk keeps
// holders, owner, fD and fS: DiriB's broadcast bit is set exactly while
// more than i caches hold the block, and a pointer list names exactly
// the holders. All variants therefore produce identical event
// frequencies on a trace (the paper's Table 4 prints one column for
// Dir0B and WTI) — except DiriNB with i smaller than the machine, whose
// forced invalidations change the state: it keeps each block's fill
// order besides, and no shared walk prices it.

// A Step is the walk's record of one reference that is not plain: the
// caches that held the block before it, its Table 4 class (a miss or
// WrHitClean), and the cache that made it.
type Step struct {
	Holders Set
	Type    event.Type
	CPU     uint8
}

// A View prices the walk's steps as one variant of the family.
type View struct {
	// ptrs is the number of cache pointers an entry holds; a write that
	// finds more holders invalidates by broadcast. 0 for Dir0B and WTI,
	// i for DiriB/DiriNB, ncpu for DirNNB, DirCV and Yen–Fu.
	ptrs int
	// writeThrough selects WTI: every write goes to memory, memory is
	// never stale, and snooping invalidates free of directory queries.
	writeThrough bool
	// singleBit selects Yen–Fu: a cache's "single" bit, set while it
	// holds the only copy, spares an unshared clean write the directory,
	// at a control message whenever a block goes from one copy to two.
	singleBit bool
	// coarse selects DirCV's delivery: to every cache the coarse code of
	// the holders names.
	coarse bool
}

// Plain returns the outcome of a plain reference of type t: the type
// alone, but for WTI's write to a block it holds dirty, which still goes
// on the bus as a write-through.
func (v *View) Plain(t event.Type) event.Result {
	return event.Result{Type: t, Update: v.writeThrough && t == event.WrHitOwn}
}

// Result returns the outcome of step s under the variant.
func (v *View) Result(s Step) event.Result {
	n := s.Holders.Count()
	res := event.Result{Type: s.Type, Holders: int16(n)}
	if s.Type == event.RdMissDirty || s.Type == event.WrMissDirty {
		// The owner flushes the block and the requester snarfs it off the
		// write-back; under write-through memory, never stale, supplies it.
		res.WriteBack, res.CacheSupply = !v.writeThrough, !v.writeThrough
	}
	if s.Type < event.WrHitOwn {
		// A read miss; Yen–Fu clears a sole clean holder's single bit.
		if v.singleBit && s.Type == event.RdMissClean && n == 1 {
			res.Control = 1
		}
		return res
	}
	k := n // the copies to invalidate: every holder but the writer
	if s.Type == event.WrHitClean {
		// The directory is queried before the writer proceeds, unless Yen–Fu's
		// single bit says it is alone; a miss's lookup overlaps memory's.
		k--
		res.Holders = int16(k)
		res.DirCheck = !v.writeThrough && !(v.singleBit && k == 0)
	}
	// Every other copy goes: by broadcast where the entry cannot name the
	// holders, else one message per copy, or per cache the code names.
	switch {
	case k == 0:
	case n > v.ptrs:
		res.Broadcast = true
	case v.coarse:
		res.Inval = int16(coarseNamed(s.Holders, v.ptrs).Del(s.CPU).Count())
	default:
		res.Inval = int16(k)
	}
	res.Update = v.writeThrough
	return res
}

// mrsw is one variant as a protocol: the walk and its View.
type mrsw struct {
	View
	// fifo is each block's fill order, DiriNB's victim choice when i <
	// ncpu (a fill beyond i copies invalidates the oldest); else nil.
	fifo map[trace.Block][]uint8
}

// newMRSW builds the engine for one variant. A write to a block the
// writer holds dirty changes no state: its outcome is the view's Plain.
func newMRSW(ncpu int, name string, m *mrsw) *engine {
	s := scheme{name: name, need: fD, hit: m.Plain(event.WrHitOwn), step: m.step, check: m.check}
	if m.fifo == nil {
		s.view = &m.View
	}
	return newEngine(ncpu, s)
}

// ViewOf returns p's View when p is a variant the shared walk prices:
// every one but DiriNB with i smaller than the machine.
func ViewOf(p Protocol) (*View, bool) {
	e, ok := p.(*engine)
	if !ok || e.view == nil {
		return nil, false
	}
	return e.view, true
}

// Walk is the family's state walk alone: it records the steps of one
// pass over a trace for any number of Views to price.
type Walk struct {
	e     *engine
	steps []Step
	outs  []event.Result
}

// NewWalk returns the walk over ncpu caches.
func NewWalk(ncpu int) *Walk {
	w, m := &Walk{}, &mrsw{}
	w.e = newEngine(ncpu, scheme{name: "walk", need: fD, hit: m.Plain(event.WrHitOwn),
		step: func(ck *Checker, bl *block, c uint8, b trace.Block, _ bool, res *event.Result) {
			s := Step{Holders: bl.holders, Type: res.Type, CPU: c}
			w.steps = append(w.steps, s)
			m.walk(ck, bl, s, b, res)
		}})
	return w
}

// Next applies refs in order. Plain references are added to plain.N by
// type, as AccessSparse adds them; every other reference is appended to
// steps, in order, and the extended slice returned. refs is read-only
// and is not retained.
func (w *Walk) Next(refs []trace.Ref, plain *Plain, steps []Step) []Step {
	w.steps = steps
	w.outs = w.e.AccessSparse(refs, plain, w.outs[:0])
	return w.steps
}

// NewDir0B returns the Archibald–Baer scheme: a two-bit directory entry
// (uncached / clean-in-exactly-one / clean-in-unknown-many / dirty-in-one)
// with broadcast invalidations.
func NewDir0B(ncpu int) Protocol {
	return newMRSW(ncpu, "Dir0B", &mrsw{})
}

// NewDirNNB returns the Censier–Feautrier full-map scheme: one valid bit
// per cache in every directory entry, invalidations delivered as directed
// sequential messages, no broadcasts ever.
func NewDirNNB(ncpu int) Protocol {
	return newMRSW(ncpu, "DirNNB", &mrsw{View: View{ptrs: ncpu}})
}

// NewDiriNB returns the limited-pointer no-broadcast scheme Dir_i NB: at
// most i cached copies of a block may exist; a fill beyond that forcibly
// invalidates the oldest copy. i must be at least 1 (Dir0NB cannot grant
// exclusive access, as the paper notes).
func NewDiriNB(ncpu, i int) Protocol {
	if i < 1 {
		panic("core: DiriNB requires at least one pointer")
	}
	m := &mrsw{View: View{ptrs: min(i, ncpu)}}
	if i < ncpu {
		m.fifo = map[trace.Block][]uint8{}
	}
	return newMRSW(ncpu, fmt.Sprintf("Dir%dNB", i), m)
}

// NewDiriB returns the limited-pointer broadcast scheme Dir_i B: the entry
// holds up to i pointers plus a broadcast bit; overflow sets the bit and
// later invalidation falls back to broadcast. Dir1B is the single-pointer
// instance studied in Section 6.
func NewDiriB(ncpu, i int) Protocol {
	if i < 1 {
		panic("core: DiriB requires at least one pointer (use NewDir0B for i=0)")
	}
	return newMRSW(ncpu, fmt.Sprintf("Dir%dB", i), &mrsw{View: View{ptrs: i}})
}

// NewYenFu returns the Yen–Fu refinement of the Censier–Feautrier
// full-map scheme (paper, Section 2): directory organization and
// invalidation delivery are DirNNB's, but a per-cache "single" bit lets a
// write to an unshared clean block skip the directory query, at the cost
// of control traffic to keep the bits current.
func NewYenFu(ncpu int) Protocol {
	return newMRSW(ncpu, "YenFu", &mrsw{View: View{ptrs: ncpu, singleBit: true}})
}

// NewWTI returns the write-through-with-invalidate snoopy protocol: all
// writes go to memory, snooping caches invalidate matching blocks, memory
// is never stale.
func NewWTI(ncpu int) Protocol {
	return newMRSW(ncpu, "WTI", &mrsw{View: View{writeThrough: true}})
}

// NewCoarseVector returns the Section 6 coarse-vector directory, DirCV:
// DirNNB with each entry stored as a 2·log2(n)-bit ternary-digit code, so
// an invalidation reaches every cache the code names. The state changes
// as DirNNB's do, so the messages it sends beyond DirNNB's on one trace
// are the ones wasted on caches holding no copy.
func NewCoarseVector(ncpu int) Protocol {
	return newMRSW(ncpu, "DirCV", &mrsw{View: View{ptrs: ncpu, coarse: true}})
}

// coarseNamed returns the caches below ncpu that the coarse code of a
// holder set names. The code is not stored: holders only grow between
// writes, and a write resets holders and code to the writer. Its digit k
// is "both" where the holders' index bit k differs and fixed where they
// agree; it names every index that matches the fixed digits.
func coarseNamed(holders Set, ncpu int) Set {
	if holders.Empty() {
		return 0
	}
	named := Set(1)<<ncpu - 1
	// Digit k's mask d is the set of cache indices whose bit k is 1.
	for _, d := range [...]Set{0xaaaaaaaaaaaaaaaa, 0xcccccccccccccccc, 0xf0f0f0f0f0f0f0f0,
		0xff00ff00ff00ff00, 0xffff0000ffff0000, 0xffffffff00000000} {
		switch {
		case holders&d == 0:
			named &^= d
		case holders&^d == 0:
			named &= d
		}
	}
	return named
}

// step prices c's reference, which the engine has classified into res,
// as the variant, then walks it.
func (m *mrsw) step(ck *Checker, bl *block, c uint8, b trace.Block, _ bool, res *event.Result) {
	s := Step{Holders: bl.holders, Type: res.Type, CPU: c}
	*res = m.Result(s)
	m.walk(ck, bl, s, b, res)
}

// walk applies step s to the block's state and tells the checker how the
// data moved, which res, the variant's outcome, says.
func (m *mrsw) walk(ck *Checker, bl *block, s Step, b trace.Block, res *event.Result) {
	c := s.CPU
	switch {
	case s.Type == event.WrHitClean:
	case res.CacheSupply:
		ck.WriteBack(bl.owner, b)
		ck.FillFromCache(c, bl.owner, b)
	default:
		ck.FillFromMemory(c, b)
	}
	if s.Type < event.WrHitOwn {
		// A read fill: both copies end up clean.
		bl.flags &^= fD
		m.fill(ck, bl, c, b, res)
		return
	}
	ck.invalidateAll(s.Holders.Del(c), b)
	ck.Write(c, b)
	if res.Update {
		ck.WriteThrough(c, b)
	}
	bl.holders, bl.owner = Set(0).Add(c), c
	bl.flags |= fD
	if m.fifo != nil {
		m.fifo[b] = append(m.fifo[b][:0], c)
	}
}

// fill adds c to the holders after a read fill; beyond its i copies
// DiriNB invalidates the oldest to make room.
func (m *mrsw) fill(ck *Checker, bl *block, c uint8, b trace.Block, res *event.Result) {
	n := bl.holders.Count()
	bl.holders = bl.holders.Add(c)
	switch {
	case m.fifo == nil:
	case n < m.ptrs:
		m.fifo[b] = append(m.fifo[b], c)
	default:
		// The newcomer takes the youngest place in the (full) fill order.
		fifo := m.fifo[b]
		victim := fifo[0]
		copy(fifo, fifo[1:])
		fifo[len(fifo)-1] = c
		bl.holders = bl.holders.Del(victim)
		ck.Invalidate(victim, b)
		res.ForcedInval++
	}
}

func (m *mrsw) check(bl *block) error {
	if n := bl.holders.Count(); m.fifo != nil && n > m.ptrs {
		return fmt.Errorf("has %d copies, limit %d", n, m.ptrs)
	}
	return nil
}
