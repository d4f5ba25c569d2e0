package network

import (
	"math"
	"strings"
	"testing"

	"dirsim/internal/event"
)

// addOne prices one result, whose own counts are its units.
func addOne(t *Tally, res event.Result) { t.AddN(res, 1, res.Units()) }

func TestTallyFillFromMemory(t *testing.T) {
	tl := NewTally(Crossbar(4)) // unit distance: easy arithmetic
	addOne(tl, event.Result{Type: event.RdMissMem})
	// Request (1 flit) + reply (5 flits).
	if tl.Cycles() != 6 || tl.Messages != 2 {
		t.Errorf("cycles=%v msgs=%d", tl.Cycles(), tl.Messages)
	}
}

func TestTallyCacheSupplyWithWriteBack(t *testing.T) {
	tl := NewTally(Crossbar(4))
	addOne(tl, event.Result{Type: event.RdMissDirty, CacheSupply: true, WriteBack: true})
	// req + forward (1+1) + data (5) + wb (5) = 12.
	if tl.Cycles() != 12 || tl.Messages != 4 {
		t.Errorf("cycles=%v msgs=%d", tl.Cycles(), tl.Messages)
	}
}

func TestTallyDirectedInvals(t *testing.T) {
	tl := NewTally(Crossbar(4))
	addOne(tl, event.Result{Type: event.WrHitClean, DirCheck: true, Inval: 3})
	// query+grant (2) + 3 invals + 3 acks (6) = 8 messages, 8 cycles.
	if tl.Cycles() != 8 || tl.Messages != 8 {
		t.Errorf("cycles=%v msgs=%d", tl.Cycles(), tl.Messages)
	}
}

func TestTallyBroadcastFlood(t *testing.T) {
	bus := NewTally(Bus(16))
	xbar := NewTally(Crossbar(16))
	res := event.Result{Type: event.WrHitClean, DirCheck: true, Broadcast: true}
	addOne(bus, res)
	addOne(xbar, res)
	if bus.Floods != 0 || xbar.Floods != 1 {
		t.Errorf("flood counting: bus %d, xbar %d", bus.Floods, xbar.Floods)
	}
	if xbar.Cycles() <= bus.Cycles() {
		t.Error("a flood must cost more than a native broadcast")
	}
}

func TestTallyFirstRefExcluded(t *testing.T) {
	tl := NewTally(Mesh(4, 4))
	addOne(tl, event.Result{Type: event.RdMissFirst})
	addOne(tl, event.Result{Type: event.WrMissFirst, Broadcast: true})
	if tl.Cycles() != 0 || tl.Messages != 0 {
		t.Error("first-reference misses must be free")
	}
	if tl.Refs != 2 {
		t.Error("refs still counted")
	}
}

func TestTallyHitsFree(t *testing.T) {
	tl := NewTally(Mesh(4, 4))
	addOne(tl, event.Result{Type: event.RdHit})
	addOne(tl, event.Result{Type: event.Instr})
	addOne(tl, event.Result{Type: event.WrHitOwn})
	if tl.Cycles() != 0 {
		t.Error("hits and instructions must be free")
	}
	if tl.PerRef() != 0 {
		t.Error("PerRef should be 0")
	}
}

func TestTallyUpdate(t *testing.T) {
	tl := NewTally(Crossbar(8))
	addOne(tl, event.Result{Type: event.WrHitShared, Update: true, Broadcast: true})
	// One 1-word message (2 flits) plus a word flood (2 * (n-1)).
	if want := 2.0 + 14; tl.Cycles() != want {
		t.Errorf("update cycles = %v, want %v", tl.Cycles(), want)
	}
}

func TestTallyMerge(t *testing.T) {
	a, b := NewTally(Crossbar(4)), NewTally(Crossbar(4))
	addOne(a, event.Result{Type: event.RdMissMem})
	addOne(b, event.Result{Type: event.RdMissMem})
	a.Merge(b)
	if a.Refs != 2 || a.Cycles() != 12 {
		t.Errorf("merge: %+v", a)
	}
}

func TestTallyString(t *testing.T) {
	tl := NewTally(Crossbar(16))
	addOne(tl, event.Result{Type: event.WrMissClean, Broadcast: true})
	s := tl.String()
	if !strings.Contains(s, "xbar16") || !strings.Contains(s, "floods") {
		t.Errorf("String() = %q", s)
	}
}

func TestAvgDistSanity(t *testing.T) {
	// AvgDist must be positive and at most the diameter for all shapes.
	topos := []Topology{Bus(4), Crossbar(32), Ring(9), Mesh(3, 5), Torus(4, 4), Hypercube(5)}
	for _, topo := range topos {
		if topo.AvgDist <= 0 || topo.AvgDist > float64(topo.Diameter) {
			t.Errorf("%s: avg %v diameter %d", topo.Name, topo.AvgDist, topo.Diameter)
		}
		if math.IsNaN(topo.AvgDist) {
			t.Errorf("%s: NaN avg", topo.Name)
		}
	}
}
