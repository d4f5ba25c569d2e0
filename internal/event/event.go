// Package event defines the per-reference event taxonomy of the paper's
// Table 4, counters over that taxonomy, and the invalidation-count
// histogram of Figure 1.
//
// A coherence protocol is split — exactly as Section 5 of the paper
// describes — into (1) a state-change specification, which fixes how often
// each event occurs, and (2) an implementation, which fixes what each event
// costs on the bus. Packages internal/core (protocol engines) produce
// values of this package; internal/bus consumes them with a cost model.
package event

import "fmt"

// Type classifies one memory reference under a given protocol's
// state-change specification. The names follow Table 4 of the paper.
type Type uint8

const (
	// Instr is an instruction fetch. Instructions cause no coherence
	// traffic and their misses are not costed (paper, Section 4).
	Instr Type = iota
	// RdHit is a data read that hits in the local cache.
	RdHit
	// RdMissFirst is a read miss that is the first reference to the
	// block by any processor in the trace (rm-first-ref). It would occur
	// in a uniprocessor infinite cache too, so it is excluded from the
	// multiprocessing overhead.
	RdMissFirst
	// RdMissMem is a read miss on a block no other cache holds; memory
	// supplies the data.
	RdMissMem
	// RdMissClean is a read miss on a block clean in at least one other
	// cache (rm-blk-cln).
	RdMissClean
	// RdMissDirty is a read miss on a block dirty in another cache
	// (rm-blk-drty).
	RdMissDirty
	// WrHitOwn is a write hit on a block this cache already holds with
	// write permission — dirty, or exclusive-clean where the protocol
	// tracks that (wh-blk-drty). It costs nothing.
	WrHitOwn
	// WrHitClean is a write hit on a block the writer holds clean
	// (wh-blk-cln). In the directory schemes the directory must be
	// queried and any other copies invalidated.
	WrHitClean
	// WrHitShared is a Dragon write hit on a block other caches also
	// hold (wh-distrib); the written word is broadcast as an update.
	WrHitShared
	// WrHitLocal is a Dragon write hit on a block no other cache holds
	// (wh-local); it stays local.
	WrHitLocal
	// WrMissFirst is a write miss that is the first reference to the
	// block in the trace (wm-first-ref); excluded from overhead.
	WrMissFirst
	// WrMissMem is a write miss on a block no other cache holds.
	WrMissMem
	// WrMissClean is a write miss on a block clean in other caches
	// (wm-blk-cln); the copies must be invalidated (or updated).
	WrMissClean
	// WrMissDirty is a write miss on a block dirty in another cache
	// (wm-blk-drty); the owner must flush (or supply) it.
	WrMissDirty

	// NumTypes is the number of event types.
	NumTypes
)

var typeNames = [NumTypes]string{
	Instr:       "instr",
	RdHit:       "rd-hit",
	RdMissFirst: "rm-first-ref",
	RdMissMem:   "rm-blk-mem",
	RdMissClean: "rm-blk-cln",
	RdMissDirty: "rm-blk-drty",
	WrHitOwn:    "wh-blk-drty",
	WrHitClean:  "wh-blk-cln",
	WrHitShared: "wh-distrib",
	WrHitLocal:  "wh-local",
	WrMissFirst: "wm-first-ref",
	WrMissMem:   "wm-blk-mem",
	WrMissClean: "wm-blk-cln",
	WrMissDirty: "wm-blk-drty",
}

// String returns the paper's mnemonic for the event type.
func (t Type) String() string {
	if t < NumTypes {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// IsMiss reports whether the event is a cache miss (first-reference misses
// included).
func (t Type) IsMiss() bool {
	switch t {
	case RdMissFirst, RdMissMem, RdMissClean, RdMissDirty,
		WrMissFirst, WrMissMem, WrMissClean, WrMissDirty:
		return true
	}
	return false
}

// IsFirstRef reports whether the event is a first-reference miss, which the
// paper excludes from the multiprocessing overhead.
func (t Type) IsFirstRef() bool { return t == RdMissFirst || t == WrMissFirst }

// Result is the full outcome of applying one reference to a protocol
// engine: the Table 4 classification plus the concrete coherence actions
// taken, which the cost models and Figure 1 need. A dense AccessBatch
// writes one per reference, so it is kept to 16 bytes: the one-byte
// fields first, then the counts, each a count of caches or messages for
// one reference and so at most the machine's 64 CPUs, in two bytes. A
// sum of counts over many results, which is not so bounded, is a Units.
type Result struct {
	// Type is the Table 4 classification.
	Type Type
	// Broadcast reports that an invalidation (or update) was performed
	// by bus broadcast rather than directed messages.
	Broadcast bool
	// WriteBack reports that a dirty block was flushed to memory.
	WriteBack bool
	// CacheSupply reports that the data came from another cache rather
	// than memory.
	CacheSupply bool
	// DirCheck reports a directory access that cannot be overlapped with
	// a memory access (Dir0B's wh-blk-cln query, for example).
	DirCheck bool
	// Update reports a Dragon-style word update or a WTI write-through
	// placed on the bus.
	Update bool
	// EvictWB reports that a *replacement* (not a coherence action)
	// flushed a dirty victim to memory — finite-cache engines only.
	EvictWB bool
	// Holders is the number of *other* caches that held the block at the
	// time of the reference (before any invalidation). For writes to
	// previously-clean blocks this is the Figure 1 quantity.
	Holders int16
	// Inval is the number of directed (sequential) invalidation messages
	// sent. Zero when a broadcast was used instead.
	Inval int16
	// ForcedInval is the number of copies invalidated only to make room
	// in a limited-pointer (DiriNB) directory entry, not to satisfy the
	// multiple-readers/single-writer invariant.
	ForcedInval int16
	// Control counts auxiliary one-cycle control messages that are
	// neither invalidations nor data: the Yen–Fu scheme's single-bit
	// clears and finite-cache replacement notifications, for example.
	Control int16
}

// Quiet reports whether the result records no coherence action at all: no
// miss fill, no invalidation or update, no write-back, no directory query,
// no control traffic. Quiet results — cache hits and instruction fetches,
// the overwhelming majority of any trace — cost nothing under every cost
// model, so pricing hot loops branch on this before touching category
// arithmetic.
func (r Result) Quiet() bool { return r.noAction() && !r.Type.IsMiss() }

// noAction reports that no action field is set; a miss fill is an action
// too, but one the Type records. It and Plain take a pointer because they
// run once per reference over a dense results buffer, where copying the
// Result costs more than the test.
func (r *Result) noAction() bool {
	return !r.Broadcast && !r.WriteBack && !r.DirCheck && !r.Update &&
		!r.EvictWB && r.Inval == 0 && r.ForcedInval == 0 && r.Control == 0
}

// Class is the projection of a Result onto what the tariffs read
// (bus.Model.CostN and network.Tally.AddN): whether it is a miss, its
// action flags, and whether it carries unit counts the bus prices. The
// counts themselves (Inval, ForcedInval, Control) are linear in both
// tariffs, so a caller that counts results by class sums them per class;
// the Class keeps only whether they are present, which makes the number
// of classes independent of the CPU count. Results of one class cost the
// same apart from their units, and are bus transactions all or none.
// Holders and the Type beyond miss or not are left out because no tariff
// reads them; a tariff that comes to read one must add it here.
type Class uint8

// The bits of a Class.
const (
	classMiss Class = 1 << iota
	classWriteBack
	classCacheSupply
	classEvictWB
	classDirCheck
	classUpdate
	classBroadcast
	// classUnits marks results with unit counts a bus prices: Inval
	// (unless the result is an update, which pays through its written
	// word instead), ForcedInval or Control.
	classUnits
)

// NumClasses is the number of Class values.
const NumClasses = 1 << 8

// missTypes is the set of types IsMiss reports, as a bit mask.
const missTypes = 1<<RdMissFirst | 1<<RdMissMem | 1<<RdMissClean | 1<<RdMissDirty |
	1<<WrMissFirst | 1<<WrMissMem | 1<<WrMissClean | 1<<WrMissDirty

// Class returns r's class. First-reference misses and quiet results are
// free under every tariff; their class is not meaningful.
func (r *Result) Class() Class {
	var c Class
	if missTypes>>r.Type&1 != 0 {
		c |= classMiss
	}
	if r.WriteBack {
		c |= classWriteBack
	}
	if r.CacheSupply {
		c |= classCacheSupply
	}
	if r.EvictWB {
		c |= classEvictWB
	}
	if r.DirCheck {
		c |= classDirCheck
	}
	if r.Update {
		c |= classUpdate
	}
	if r.Broadcast {
		c |= classBroadcast
	}
	if (r.Inval > 0 && !r.Update) || r.ForcedInval > 0 || r.Control > 0 {
		c |= classUnits
	}
	return c
}

// Sum returns a result of class c that stands for some results of class
// c: CostN and AddN price it, with those results' summed Units, for n
// such results at once as they would price them one by one. Its own
// counts are zero; the units travel beside it.
func (c Class) Sum() Result {
	r := Result{
		// Any miss type that is not a first reference prices alike, as
		// does any other non-quiet type.
		Type:        WrHitClean,
		WriteBack:   c&classWriteBack != 0,
		CacheSupply: c&classCacheSupply != 0,
		EvictWB:     c&classEvictWB != 0,
		DirCheck:    c&classDirCheck != 0,
		Update:      c&classUpdate != 0,
		Broadcast:   c&classBroadcast != 0,
	}
	if c&classMiss != 0 {
		r.Type = WrMissMem
	}
	return r
}

// Units are the counts the tariffs price per unit — directed
// invalidations, forced invalidations and control messages — of one
// result or summed over several.
type Units struct {
	Inval, ForcedInval, Control int64
}

// Units returns r's own unit counts.
func (r Result) Units() Units {
	return Units{int64(r.Inval), int64(r.ForcedInval), int64(r.Control)}
}

// Add adds n results' units u to s.
func (s *Units) Add(u Units, n int64) {
	s.Inval += n * u.Inval
	s.ForcedInval += n * u.ForcedInval
	s.Control += n * u.Control
}

// plainTypes is the set of types a plain result can have, as a bit mask.
const plainTypes = 1<<Instr | 1<<RdHit | 1<<WrHitOwn | 1<<WrHitLocal

// Plain reports whether the result is an instruction fetch, a read hit or
// a write to a block the writer already owns, and Quiet: a reference that
// did nothing. A simulation needs only the number of these, by type; an
// engine's own loop also counts the hits of its types whose one outcome
// has a price (core.Plain), which this test, knowing no engine, cannot
// tell. Quiet results of other types are not plain — a Yen–Fu wh-blk-cln
// that the writer's single bit resolves locally takes no action, yet it
// is a Figure 1 observation and a coherence signal.
func (r *Result) Plain() bool { return plainTypes>>r.Type&1 != 0 && r.noAction() }
