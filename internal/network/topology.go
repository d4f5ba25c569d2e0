// Package network models interconnection topologies and prices coherence
// protocols on them. It quantifies the paper's central scalability
// argument (Sections 2 and 6): directory schemes send *directed* messages,
// which any point-to-point network can carry, while snoopy schemes rely on
// low-latency broadcast, which only a bus provides cheaply. Pricing a
// protocol's event stream on a mesh or hypercube shows the directed
// schemes' traffic growing with the network's average distance while
// broadcast-dependent schemes pay a flood for every invalidation.
//
// The model is deliberately first-order, in the spirit of the paper's bus
// models: memory and directory are distributed round-robin over the nodes
// (the organization the paper advocates), message endpoints are
// approximated as uniformly random, and a message of w data words
// consumes hops·(1+w) link-cycles (one address flit plus w data flits per
// hop, store-and-forward).
package network

import (
	"fmt"
	"math/bits"
)

// Topology describes one interconnect.
type Topology struct {
	// Name identifies the topology ("bus", "mesh4x4", ...).
	Name string
	// Nodes is the number of processor/memory nodes.
	Nodes int
	// AvgDist is the mean hop distance between two distinct nodes; it
	// equals DistSum/DistPairs and is kept for display and analysis.
	AvgDist float64
	// DistSum is the total hop distance over all ordered pairs of
	// distinct nodes, and DistPairs the number of such pairs. The pair
	// (DistSum, DistPairs) is the exact rational AvgDist, which is what
	// Tally accumulates with: every per-event link-cycle contribution is
	// an integer multiple of 1/DistPairs, so tallies sum in integer
	// units and are independent of accumulation order — the property the
	// sharded simulator's bit-identical merge relies on.
	DistSum   int
	DistPairs int
	// Diameter is the maximum hop distance.
	Diameter int
	// Broadcast reports whether the medium delivers broadcasts natively
	// in one transaction (a bus). Elsewhere a broadcast must be flooded
	// as point-to-point messages.
	Broadcast bool
	// FloodLinks is the number of link traversals needed to reach every
	// node once (a spanning tree: Nodes-1 for any connected topology).
	FloodLinks int
}

// dists computes AvgDist/Diameter from a pairwise hop function.
func build(name string, n int, broadcast bool, hop func(a, b int) int) Topology {
	t := Topology{Name: name, Nodes: n, Broadcast: broadcast, FloodLinks: n - 1}
	if n <= 1 {
		t.DistPairs = 1 // degenerate: zero distance, but a valid denominator
		return t
	}
	sum, pairs := 0, 0
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			d := hop(a, b)
			sum += d
			pairs++
			if d > t.Diameter {
				t.Diameter = d
			}
		}
	}
	t.DistSum, t.DistPairs = sum, pairs
	t.AvgDist = float64(sum) / float64(pairs)
	return t
}

// Bus returns the shared-bus "topology": every message costs one hop and
// broadcast is free with the message.
func Bus(n int) Topology {
	t := build(fmt.Sprintf("bus%d", n), n, true, func(a, b int) int { return 1 })
	return t
}

// Crossbar returns a full crossbar: unit distance, no native broadcast.
func Crossbar(n int) Topology {
	return build(fmt.Sprintf("xbar%d", n), n, false, func(a, b int) int { return 1 })
}

// Ring returns a bidirectional ring of n nodes.
func Ring(n int) Topology {
	return build(fmt.Sprintf("ring%d", n), n, false, func(a, b int) int {
		d := a - b
		if d < 0 {
			d = -d
		}
		if n-d < d {
			d = n - d
		}
		return d
	})
}

// Mesh returns a w×h 2D mesh with dimension-ordered routing.
func Mesh(w, h int) Topology {
	return build(fmt.Sprintf("mesh%dx%d", w, h), w*h, false, func(a, b int) int {
		ax, ay := a%w, a/w
		bx, by := b%w, b/w
		dx, dy := ax-bx, ay-by
		if dx < 0 {
			dx = -dx
		}
		if dy < 0 {
			dy = -dy
		}
		return dx + dy
	})
}

// Torus returns a w×h 2D torus (wrap-around mesh).
func Torus(w, h int) Topology {
	wrap := func(d, n int) int {
		if d < 0 {
			d = -d
		}
		if n-d < d {
			d = n - d
		}
		return d
	}
	return build(fmt.Sprintf("torus%dx%d", w, h), w*h, false, func(a, b int) int {
		return wrap(a%w-b%w, w) + wrap(a/w-b/w, h)
	})
}

// Hypercube returns a 2^dim-node hypercube.
func Hypercube(dim int) Topology {
	n := 1 << dim
	return build(fmt.Sprintf("hcube%d", dim), n, false, func(a, b int) int {
		return bits.OnesCount(uint(a ^ b))
	})
}

// CycleDenom is the denominator of the exact link-cycle units Tally
// accumulates in: one link-cycle equals CycleDenom units.
func (t Topology) CycleDenom() int64 {
	if t.DistPairs <= 0 {
		return 1 // hand-built zero-value topologies
	}
	return int64(t.DistPairs)
}

// MsgCycleUnits returns the link-cycles one directed message of words
// data words consumes, in exact CycleDenom units: the numerator of
// average-distance hops times (address flit + data flits).
func (t Topology) MsgCycleUnits(words int) int64 {
	return int64(t.DistSum) * int64(1+words)
}

// String summarizes the topology.
func (t Topology) String() string {
	return fmt.Sprintf("%s: %d nodes, avg dist %.2f, diameter %d",
		t.Name, t.Nodes, t.AvgDist, t.Diameter)
}
