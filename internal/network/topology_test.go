package network

import (
	"math"
	"strings"
	"testing"

	"dirsim/internal/event"
)

func TestBusTopology(t *testing.T) {
	b := Bus(8)
	if b.AvgDist != 1 || b.Diameter != 1 || !b.Broadcast {
		t.Errorf("bus: %+v", b)
	}
	tally := NewTally(b)
	addOne(tally, event.Result{Type: event.WrHitClean, Broadcast: true})
	if tally.Cycles() != 1 {
		t.Errorf("bus broadcast costs %v cycles, want 1", tally.Cycles())
	}
}

func TestCrossbar(t *testing.T) {
	x := Crossbar(16)
	if x.AvgDist != 1 || x.Broadcast {
		t.Errorf("crossbar: %+v", x)
	}
	if x.FloodLinks != 15 {
		t.Errorf("crossbar flood = %v links, want 15", x.FloodLinks)
	}
}

func TestRing(t *testing.T) {
	r := Ring(8)
	if r.Diameter != 4 {
		t.Errorf("ring8 diameter = %d, want 4", r.Diameter)
	}
	// Average over distances 1,2,3,4,3,2,1 = 16/7.
	if want := 16.0 / 7; math.Abs(r.AvgDist-want) > 1e-9 {
		t.Errorf("ring8 avg = %v, want %v", r.AvgDist, want)
	}
}

func TestMesh(t *testing.T) {
	m := Mesh(4, 4)
	if m.Nodes != 16 || m.Diameter != 6 {
		t.Errorf("mesh4x4: %+v", m)
	}
	// Known closed form for the 4x4 mesh: average Manhattan distance
	// between distinct nodes is 8/3.
	if want := 8.0 / 3; math.Abs(m.AvgDist-want) > 1e-9 {
		t.Errorf("mesh4x4 avg = %v, want %v", m.AvgDist, want)
	}
}

func TestTorusBeatsMesh(t *testing.T) {
	m, to := Mesh(8, 8), Torus(8, 8)
	if to.AvgDist >= m.AvgDist || to.Diameter >= m.Diameter {
		t.Errorf("torus should beat mesh: %v vs %v", to, m)
	}
	if to.Diameter != 8 {
		t.Errorf("torus8x8 diameter = %d, want 8", to.Diameter)
	}
}

func TestHypercube(t *testing.T) {
	h := Hypercube(4)
	if h.Nodes != 16 || h.Diameter != 4 {
		t.Errorf("hcube4: %+v", h)
	}
	// Average Hamming distance between distinct 4-bit ids:
	// 4 * 2^3 / (2^4 - 1) = 32/15.
	if want := 32.0 / 15; math.Abs(h.AvgDist-want) > 1e-9 {
		t.Errorf("hcube4 avg = %v, want %v", h.AvgDist, want)
	}
}

func TestMsgCycles(t *testing.T) {
	x := Crossbar(4)
	if got, den := x.MsgCycleUnits(4), x.CycleDenom(); got != 5*den {
		t.Errorf("4-word message on crossbar = %d/%d cycles, want 5", got, den)
	}
	m := Mesh(4, 4)
	got := float64(m.MsgCycleUnits(0)) / float64(m.CycleDenom())
	if math.Abs(got-m.AvgDist) > 1e-9 {
		t.Errorf("0-word message should cost one flit per hop: %v", got)
	}
}

func TestTopologyString(t *testing.T) {
	s := Mesh(2, 2).String()
	for _, want := range []string{"mesh2x2", "4 nodes", "diameter"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestSingleNodeDegenerate(t *testing.T) {
	b := Bus(1)
	if b.AvgDist != 0 || b.Diameter != 0 {
		t.Errorf("single node: %+v", b)
	}
}
