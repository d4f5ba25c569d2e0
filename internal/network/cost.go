package network

import (
	"fmt"
	"strings"

	"dirsim/internal/event"
)

// The message sequences a distributed-directory protocol exchanges per
// event, with the block's home node (memory + directory slice) placed by
// address interleaving:
//
//	fill from memory:   request (0 words) + data reply (4 words)
//	fill from a cache:  request + forward (0 words) + data (4 words)
//	write-back:         one 4-word message owner -> home
//	directed inval:     invalidation + acknowledgement per victim
//	directory query:    request + grant (0 words) — wh-blk-cln
//	control message:    one 0-word message (Yen-Fu single-bit clears)
//	broadcast:          native on a bus; a spanning-tree flood plus
//	                    per-node acknowledgements elsewhere
//	word update:        request (1 word) to home; note that update
//	                    protocols additionally need sharer identities,
//	                    which only a directory can provide off-bus
const (
	blockWords = 4
)

// Tally accumulates network link-cycles over a protocol's event stream —
// the network analogue of bus.Tally.
type Tally struct {
	Topo Topology
	// CycleUnits is total link-cycles consumed, in exact integer units of
	// 1/Topo.CycleDenom() (the average-distance rational's denominator).
	// Integer accumulation makes the sum independent of event order —
	// float accumulation of fractional hop averages is not associative,
	// which would break the sharded simulator's bit-identical merge.
	// Cycles() converts to link-cycles, rounding exactly once.
	CycleUnits int64
	// Messages counts directed messages; Floods counts broadcast floods.
	Messages int64
	Floods   int64
	Refs     int64
}

// NewTally returns a tally over the given topology.
func NewTally(t Topology) *Tally { return &Tally{Topo: t} }

// Cycles returns total link-cycles consumed.
func (t *Tally) Cycles() float64 {
	return float64(t.CycleUnits) / float64(t.Topo.CycleDenom())
}

// msg adds n directed messages of w data words each.
func (t *Tally) msg(n int64, w int) {
	t.Messages += n
	t.CycleUnits += n * t.Topo.MsgCycleUnits(w)
}

// AddN prices n protocol results of one event.Class, for which res
// stands and whose summed unit counts are u; AddN(res, 1, res.Units())
// prices one result. Every term is an integer count of messages or cycle units,
// so pricing n at once is exactly pricing them one by one. Every field
// read here must be part of event.Class, or results that price
// differently would share a class. First-reference misses are excluded,
// as everywhere in the evaluation.
func (t *Tally) AddN(res event.Result, n int64, u event.Units) {
	t.Refs += n
	if res.Type.IsFirstRef() || res.Quiet() {
		// Quiet results send no messages; every branch below would add
		// zero.
		return
	}
	if res.Type.IsMiss() {
		switch {
		case res.CacheSupply:
			// Request to home, forward to owner, data to requester.
			t.msg(2*n, 0)
			t.msg(n, blockWords)
			if res.WriteBack {
				t.msg(n, blockWords)
			}
		default:
			t.msg(n, 0)
			t.msg(n, blockWords)
		}
	} else if res.WriteBack {
		t.msg(n, blockWords)
	}
	if res.DirCheck {
		// Query and grant.
		t.msg(2*n, 0)
	}
	// Invalidation plus acknowledgement per victim.
	t.msg(2*u.Inval, 0)
	t.msg(2*u.ForcedInval, 0)
	t.msg(u.Control, 0)
	if res.Broadcast && !res.Update {
		if t.Topo.Broadcast {
			t.CycleUnits += n * t.Topo.CycleDenom()
		} else {
			// Flood the invalidation and collect acknowledgements
			// from every node.
			t.Floods += n
			t.CycleUnits += n * int64(t.Topo.FloodLinks) * t.Topo.CycleDenom()
			t.msg(n*int64(t.Topo.Nodes-1), 0)
		}
	}
	if res.Update {
		// The written word travels to the home node; on a bus the
		// snoopers pick it up for free, elsewhere sharers would need
		// directed updates from a directory — priced as one flood
		// when the protocol relied on snooping.
		t.msg(n, 1)
		if res.Broadcast && !t.Topo.Broadcast {
			t.Floods += n
			// A word to every node.
			t.CycleUnits += n * int64(t.Topo.FloodLinks) * 2 * t.Topo.CycleDenom()
		}
	}
}

// Merge folds another tally over the same topology into t.
func (t *Tally) Merge(o *Tally) {
	t.CycleUnits += o.CycleUnits
	t.Messages += o.Messages
	t.Floods += o.Floods
	t.Refs += o.Refs
}

// PerRef returns link-cycles consumed per memory reference.
func (t *Tally) PerRef() float64 {
	if t.Refs == 0 {
		return 0
	}
	return t.Cycles() / float64(t.Refs)
}

// MessagesPerRef returns directed messages per reference.
func (t *Tally) MessagesPerRef() float64 {
	if t.Refs == 0 {
		return 0
	}
	return float64(t.Messages) / float64(t.Refs)
}

// String renders a one-line summary.
func (t *Tally) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %.4f link-cycles/ref, %.4f msgs/ref",
		t.Topo.Name, t.PerRef(), t.MessagesPerRef())
	if t.Floods > 0 {
		fmt.Fprintf(&b, ", %d floods", t.Floods)
	}
	return b.String()
}
