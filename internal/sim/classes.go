package sim

import "dirsim/internal/event"

// classTable is a simulation's event-class histogram: how many results
// every cost model prices at zero, and how many of each event.Class there
// were with their summed unit counts. A simulation bumps it once per
// result that is neither plain nor quiet, and once per batch for each
// counted type whose outcome has a price, and prices each tally from it
// once, at the end (price). It is 8 KiB, lives in the simulating
// function's frame, and never grows.
type classTable struct {
	free  int64
	class [event.NumClasses]classCount
}

type classCount struct {
	n     int64
	units event.Units
}

// add counts n results alike, out, that are neither quiet nor first
// references.
func (t *classTable) add(out *event.Result, n int64) {
	e := &t.class[out.Class()]
	e.n += n
	e.units.Add(out.Units(), n)
}

// price adds the table to every tally of r: the free references, then
// each non-empty class as one result standing for its n, through the
// tariffs' own CostN/AddN. Prices of every model the repository builds
// are integers, and float64 sums of integers below 2^53 are exact in any
// order, so the cycles are bit-identical to pricing result by result.
func (r *Result) price(t *classTable) {
	for _, tl := range r.Tallies {
		tl.Refs += t.free
	}
	for _, tl := range r.NetTallies {
		tl.Refs += t.free
	}
	for c := range t.class {
		e := &t.class[c]
		if e.n == 0 {
			continue
		}
		sum := event.Class(c).Sum()
		for _, tl := range r.Tallies {
			tl.AddN(sum, e.n, e.units)
		}
		for _, tl := range r.NetTallies {
			tl.AddN(sum, e.n, e.units)
		}
	}
}
