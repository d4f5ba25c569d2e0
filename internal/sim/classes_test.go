package sim

import (
	"math"
	"math/bits"
	"reflect"
	"strings"
	"testing"

	"dirsim/internal/bus"
	"dirsim/internal/core"
	"dirsim/internal/event"
	"dirsim/internal/network"
	"dirsim/internal/workload"
)

// classTestSchemes is every fixed scheme name plus the parameterized
// ones the paper's studies use and a finite cache.
func classTestSchemes() []string {
	seen := map[string]bool{}
	var names []string
	for _, s := range append(core.Schemes(), "Dir1B", "Dir2B", "Dir2NB", "YenFu", "FiniteDirNNB:512b2w") {
		if !seen[strings.ToLower(s)] {
			seen[strings.ToLower(s)] = true
			names = append(names, s)
		}
	}
	return names
}

// classTestModels are the paper's two tariffs and one variant of each
// kind the studies build: other block sizes, a fixed cost q, a costly
// broadcast and free directory checks. Tallies are keyed by name, so each
// gets its own.
func classTestModels() []bus.Model {
	named := func(m bus.Model, name string) bus.Model { m.Name = name; return m }
	q2 := bus.NonPipelined()
	q2.Q = 2
	b8 := bus.Pipelined()
	b8.BroadcastInval = 8
	berkeley := bus.Pipelined()
	berkeley.DirCheckFree = true
	return []bus.Model{
		bus.Pipelined(),
		bus.NonPipelined(),
		named(bus.PipelinedWords(2), "pipelined-2w"),
		named(bus.PipelinedWords(8), "pipelined-8w"),
		named(bus.PipelinedWords(16), "pipelined-16w"),
		named(q2, "non-pipelined-q2"),
		named(b8, "pipelined-b8"),
		named(berkeley, "berkeley"),
	}
}

// classTestTopologies is every topology kind over n nodes (n a square
// power of two).
func classTestTopologies(n int) []network.Topology {
	side := 1 << (bits.Len(uint(n)) / 2)
	return []network.Topology{
		network.Bus(n), network.Crossbar(n), network.Ring(n),
		network.Mesh(side, side), network.Torus(side, side),
		network.Hypercube(bits.Len(uint(n)) - 1),
	}
}

// TestClassPricingMatchesPerEvent holds pricing by event class to the
// per-event oracle, bit for bit: every scheme, at 4 and 64 CPUs (where an
// event invalidates up to 63 copies, all in one class), under every kind
// of bus tariff and topology, sequential and over two shards.
func TestClassPricingMatchesPerEvent(t *testing.T) {
	for _, cpus := range []int{4, 64} {
		opts := Options{Models: classTestModels(), Topologies: classTestTopologies(cpus)}
		for _, cfg := range workload.StandardConfigs(cpus, 10_000) {
			tr := workload.MustGenerate(cfg)
			for _, scheme := range classTestSchemes() {
				build := func() (core.Protocol, error) { return core.NewByName(scheme, cpus) }
				p, err := build()
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := referenceSimulate(p, tr.Iterator(), opts)
				if err != nil {
					t.Fatal(err)
				}
				p, _ = build()
				got, err := Simulate(p, tr.Iterator(), opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s over %s: priced by class, result differs from per-event pricing", scheme, cfg.Name)
				}
				if _, _, _, finite := core.MissCauses(p); finite {
					continue // refused by SimulateSharded
				}
				sharded := opts
				sharded.Shards = 2
				got, err = SimulateSharded(build, tr.Iterator(), sharded)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s over %s at 2 shards: priced by class, result differs from per-event pricing", scheme, cfg.Name)
				}
			}
		}
	}
}

// TestClassPricingRoundsOncePerClass states what pricing by class gives
// under a tariff with non-integer prices, which no study builds: each
// category is a sum over at most event.NumClasses products, so it is within
// 1e-12 of the per-event sum, which rounds once per event; counts stay
// exact.
func TestClassPricingRoundsOncePerClass(t *testing.T) {
	m := bus.Pipelined()
	m.Name, m.Q = "pipelined-q0.1", 0.1
	opts := Options{Models: []bus.Model{m}}
	tr := workload.POPS(4, 30_000)
	for _, scheme := range []string{"Dir1NB", "WTI", "Dir0B", "Dragon", "DirNNB"} {
		p, _ := core.NewByName(scheme, tr.CPUs)
		want, _, err := referenceSimulate(p, tr.Iterator(), opts)
		if err != nil {
			t.Fatal(err)
		}
		p, _ = core.NewByName(scheme, tr.CPUs)
		got, err := Simulate(p, tr.Iterator(), opts)
		if err != nil {
			t.Fatal(err)
		}
		g, w := got.Tally(m.Name), want.Tally(m.Name)
		if g.Refs != w.Refs || g.Transactions != w.Transactions {
			t.Errorf("%s: refs %d, transactions %d; want %d, %d", scheme, g.Refs, g.Transactions, w.Refs, w.Transactions)
		}
		if w.Cycles[bus.CatQ] == 0 {
			t.Errorf("%s: no fixed cost charged", scheme)
		}
		for c := range g.Cycles {
			if diff := math.Abs(g.Cycles[c] - w.Cycles[c]); diff > 1e-12*math.Abs(w.Cycles[c]) {
				t.Errorf("%s %v: %v cycles, per-event %v", scheme, bus.Category(c), g.Cycles[c], w.Cycles[c])
			}
		}
	}
}

// TestClassTableRecordAllocatesNothing: recording a result that is
// neither plain nor quiet is integer bumps into a fixed table. Sixty-three
// invalidations and one share a class, so the table's size does not
// depend on the CPU count.
func TestClassTableRecordAllocatesNothing(t *testing.T) {
	var r Result
	var classes classTable
	wide := event.Result{Type: event.WrMissClean, Holders: 63, Inval: 63}
	narrow := event.Result{Type: event.WrMissClean, Holders: 1, Inval: 1}
	if allocs := testing.AllocsPerRun(1000, func() {
		r.record(&wide, 1, &classes)
		r.record(&narrow, 1, &classes)
	}); allocs != 0 {
		t.Errorf("recording allocated %.1f times per run", allocs)
	}
	var used []classCount
	for _, e := range classes.class {
		if e.n > 0 {
			used = append(used, e)
		}
	}
	if len(used) != 1 || used[0].units.Inval != 32*used[0].n {
		t.Errorf("classes used: %+v; want one, with 64 invalidations per two results", used)
	}
}
