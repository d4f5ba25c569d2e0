// Package bus implements the communication cost models of the paper's
// Section 4.3: the fundamental bus operation timings of Table 1, the
// pipelined and non-pipelined per-operation costs of Table 2, and the
// machinery that weights protocol event frequencies by those costs to
// produce the paper's central metric, bus cycles per memory reference.
//
// The cost computation is deliberately separated from the protocol engines
// (internal/core): engines fix event frequencies, this package fixes what
// each event costs, so — as in the paper — one simulation run per protocol
// suffices and hardware models can be varied afterwards.
package bus

import (
	"fmt"

	"dirsim/internal/event"
)

// Table 1: timings for fundamental bus operations, in bus cycles.
const (
	CyclesSendAddress   = 1 // place an address on the bus
	CyclesTransferWord  = 1 // move one 32-bit word
	CyclesInvalidate    = 1 // deliver one invalidation
	CyclesWaitDirectory = 2 // directory array access latency
	CyclesWaitMemory    = 2 // memory array access latency
	CyclesWaitCache     = 1 // remote cache array access latency
	WordsPerBlock       = 4 // 16-byte blocks, 32-bit words
)

// Model is a bus cost model: the cycle price of each composite operation a
// coherence protocol performs. The two instances used by the paper are
// Pipelined and NonPipelined; custom models can be built directly.
type Model struct {
	// Name identifies the model in reports ("pipelined" etc.).
	Name string
	// MemAccess is a block fetch from main memory.
	MemAccess float64
	// CacheAccess is a block supplied cache-to-cache.
	CacheAccess float64
	// WriteBackFill is a dirty block flushed to memory with the
	// requesting cache snarfing the data off the bus; the cost of
	// getting the data to the requester is entirely inside this figure.
	WriteBackFill float64
	// WriteWord is a one-word write-through or Dragon write update.
	WriteWord float64
	// DirCheck is a directory query that cannot be overlapped with a
	// memory access (e.g. on a write hit to a clean block).
	DirCheck float64
	// Inval is one directed invalidation message.
	Inval float64
	// BroadcastInval is a broadcast invalidation. The paper's
	// simplifying assumption prices it like a single invalidate; the
	// Dir1B study of Section 6 varies it (the parameter b).
	BroadcastInval float64
	// Q is a fixed overhead added to every bus transaction — the
	// Section 5.1 constant for arbitration, cache lookup, and bus
	// controller propagation. Zero in the headline tables.
	Q float64
	// DirCheckFree zeroes the DirCheck charge; it converts the Dir0B
	// tariff into the paper's Berkeley-Ownership estimate, where the
	// cache's own state supplies the would-be directory answer.
	DirCheckFree bool
}

// Pipelined returns the sophisticated bus of the paper: separate address
// and data paths, bus released during array access.
//
//	memory or remote-cache access: 5 = 1 addr + 4 words
//	write-back:                    4 (addr+word0 together, then 3 words)
//	write-through / update:        1
//	directory check:               1 (send address)
//	invalidate:                    1
func Pipelined() Model { return PipelinedWords(WordsPerBlock) }

// PipelinedWords is Pipelined for a non-standard block size of words
// 32-bit words (the block-size sensitivity study).
func PipelinedWords(words int) Model {
	return Model{
		Name:           "pipelined",
		MemAccess:      CyclesSendAddress + float64(words)*CyclesTransferWord,
		CacheAccess:    CyclesSendAddress + float64(words)*CyclesTransferWord,
		WriteBackFill:  float64(words) * CyclesTransferWord,
		WriteWord:      CyclesTransferWord,
		DirCheck:       CyclesSendAddress,
		Inval:          CyclesInvalidate,
		BroadcastInval: CyclesInvalidate,
	}
}

// NonPipelined returns the simple bus: multiplexed address/data lines, bus
// held for the duration of the access.
//
//	memory access:          7 = 1 addr + 2 memory wait + 4 words
//	remote-cache access:    6 = 1 addr + 1 cache wait + 4 words
//	write-back:             4 (memory wait counted under memory access;
//	                           the bus is released during the array write)
//	write-through / update: 2 = 1 addr + 1 word
//	directory check:        3 = 1 addr + 2 directory wait
//	invalidate:             1
func NonPipelined() Model { return NonPipelinedWords(WordsPerBlock) }

// NonPipelinedWords is NonPipelined for a non-standard block size.
func NonPipelinedWords(words int) Model {
	return Model{
		Name:           "non-pipelined",
		MemAccess:      CyclesSendAddress + CyclesWaitMemory + float64(words)*CyclesTransferWord,
		CacheAccess:    CyclesSendAddress + CyclesWaitCache + float64(words)*CyclesTransferWord,
		WriteBackFill:  CyclesWaitCache + float64(words)*CyclesTransferWord,
		WriteWord:      CyclesSendAddress + CyclesTransferWord,
		DirCheck:       CyclesSendAddress + CyclesWaitDirectory,
		Inval:          CyclesInvalidate,
		BroadcastInval: CyclesInvalidate,
	}
}

// Category labels the operation classes of Table 5's breakdown.
type Category uint8

const (
	// CatInval is invalidation traffic (directed or broadcast).
	CatInval Category = iota
	// CatWriteBack is dirty-block flush traffic.
	CatWriteBack
	// CatMemAccess is block-fill traffic from memory or a remote cache.
	CatMemAccess
	// CatDirAccess is non-overlapped directory query traffic.
	CatDirAccess
	// CatWriteWord is write-through ("wt") or write-update ("wup")
	// traffic.
	CatWriteWord
	// CatQ is the per-transaction fixed overhead of Section 5.1.
	CatQ

	// NumCategories is the number of breakdown categories.
	NumCategories
)

var categoryNames = [NumCategories]string{
	CatInval:     "inval",
	CatWriteBack: "wb",
	CatMemAccess: "mem access",
	CatDirAccess: "dir access",
	CatWriteWord: "wt or wup",
	CatQ:         "fixed (q)",
}

// String returns the Table 5 row label for the category.
func (c Category) String() string {
	if c < NumCategories {
		return categoryNames[c]
	}
	return fmt.Sprintf("Category(%d)", uint8(c))
}

// Breakdown is bus cycles accumulated per operation category.
type Breakdown [NumCategories]float64

// Total returns the summed cycles across categories.
func (b Breakdown) Total() float64 {
	var t float64
	for _, v := range b {
		t += v
	}
	return t
}

// Add returns the element-wise sum of two breakdowns.
func (b Breakdown) Add(o Breakdown) Breakdown {
	for i, v := range o {
		b[i] += v
	}
	return b
}

// Scale returns the breakdown multiplied by f.
func (b Breakdown) Scale(f float64) Breakdown {
	for i := range b {
		b[i] *= f
	}
	return b
}

// Cost prices one protocol result under the model. It returns the cycles
// by category and whether the reference used the bus at all (a
// "transaction" in the Figure 5 / Section 5.1 sense). First-reference
// misses are excluded from the multiprocessing overhead, as in the paper,
// and cost nothing.
func (m Model) Cost(res event.Result) (b Breakdown, transaction bool) {
	b, n := m.CostN(res, 1, res.Units())
	return b, n == 1
}

// CostN prices n results of one event.Class at once: results that agree
// on every field Cost reads except their unit counts. res stands for
// them (its own counts are not read), u is their summed unit counts, and
// either every one of them has invalidation units to pay for or none
// has, so the n are all transactions or none is. It returns the n
// results' summed cycles by category and how many of them were
// transactions. With integer prices (every tariff the repository builds)
// the sum is exactly what pricing the results one by one adds up to;
// otherwise each category is rounded once per call instead of once per
// result. Every field read here must be part of event.Class, or results
// that price differently would share a class.
func (m Model) CostN(res event.Result, n int64, u event.Units) (b Breakdown, transactions int64) {
	if res.Type.IsFirstRef() || res.Quiet() {
		// Free references — hits, instruction fetches, excluded
		// first-reference misses — skip the category arithmetic
		// entirely. Prices are non-negative, so a quiet result could
		// only ever have produced an all-zero breakdown; returning it
		// without the additions below is bit-identical.
		return b, 0
	}
	k := float64(n)
	// Invalidation delivery. Update protocols (Dragon, WTI) pay for the
	// broadcast through the written word itself, so a Broadcast flag
	// accompanied by Update is not double-charged.
	if !res.Update {
		if res.Broadcast {
			b[CatInval] += k * m.BroadcastInval
		}
		b[CatInval] += float64(u.Inval) * m.Inval
	}
	b[CatInval] += float64(u.ForcedInval) * m.Inval
	b[CatInval] += float64(u.Control) * m.Inval
	// Block fill on a miss.
	if res.Type.IsMiss() {
		switch {
		case res.WriteBack:
			b[CatWriteBack] += k * m.WriteBackFill
		case res.CacheSupply:
			b[CatMemAccess] += k * m.CacheAccess
		default:
			b[CatMemAccess] += k * m.MemAccess
		}
	} else if res.WriteBack {
		b[CatWriteBack] += k * m.WriteBackFill
	}
	// A replacement write-back rides alongside whatever else happened.
	if res.EvictWB {
		b[CatWriteBack] += k * m.WriteBackFill
	}
	// Non-overlapped directory query.
	if res.DirCheck && !m.DirCheckFree {
		b[CatDirAccess] += k * m.DirCheck
	}
	// Write-through or write update.
	if res.Update {
		b[CatWriteWord] += k * m.WriteWord
	}
	if b.Total() == 0 {
		return b, 0
	}
	b[CatQ] += k * m.Q
	return b, n
}
