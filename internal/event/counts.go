package event

import (
	"fmt"
	"strings"
)

// Counts accumulates event frequencies for one protocol over one trace —
// the raw material of Table 4.
type Counts struct {
	// N[t] is the number of references classified as event t.
	N [NumTypes]int64
	// Total is the total number of references seen (including
	// instruction fetches).
	Total int64
}

// Add records n classified references of type t.
func (c *Counts) Add(t Type, n int64) {
	c.N[t] += n
	c.Total += n
}

// AddCounts merges other into c (used to average across traces).
func (c *Counts) AddCounts(other Counts) {
	for i := range c.N {
		c.N[i] += other.N[i]
	}
	c.Total += other.Total
}

// Pct returns the frequency of event t as a percentage of all references,
// the unit used throughout Table 4.
func (c *Counts) Pct(t Type) float64 {
	if c.Total == 0 {
		return 0
	}
	return 100 * float64(c.N[t]) / float64(c.Total)
}

// PctSum returns the combined percentage of the given event types.
func (c *Counts) PctSum(types ...Type) float64 {
	var s float64
	for _, t := range types {
		s += c.Pct(t)
	}
	return s
}

// Reads returns the percentage of references that are data reads.
func (c *Counts) Reads() float64 {
	return c.PctSum(RdHit, RdMissFirst, RdMissMem, RdMissClean, RdMissDirty)
}

// Writes returns the percentage of references that are data writes.
func (c *Counts) Writes() float64 {
	return c.PctSum(WrHitOwn, WrHitClean, WrHitShared, WrHitLocal,
		WrMissFirst, WrMissMem, WrMissClean, WrMissDirty)
}

// ReadMisses returns the percentage of references that are non-first read
// misses (the paper's rd-miss row).
func (c *Counts) ReadMisses() float64 {
	return c.PctSum(RdMissMem, RdMissClean, RdMissDirty)
}

// WriteMisses returns the percentage of references that are non-first
// write misses (the paper's wrt-miss row).
func (c *Counts) WriteMisses() float64 {
	return c.PctSum(WrMissMem, WrMissClean, WrMissDirty)
}

// DataMissRate returns the total data miss rate including first-reference
// misses, as a percentage of all references. For an update protocol this is
// the "native" miss rate of the trace (paper, Section 5).
func (c *Counts) DataMissRate() float64 {
	return c.ReadMisses() + c.WriteMisses() + c.PctSum(RdMissFirst, WrMissFirst)
}

// String renders the counts as a Table 4 style column.
func (c *Counts) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %8s %8s\n", "event", "count", "% refs")
	for t := Type(0); t < NumTypes; t++ {
		if c.N[t] == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-14s %8d %8.3f\n", t, c.N[t], c.Pct(t))
	}
	fmt.Fprintf(&b, "%-14s %8d\n", "total", c.Total)
	return b.String()
}

// Hist is an integer-valued histogram, used for the Figure 1 distribution
// of how many caches must be invalidated on a write to a previously-clean
// block, and for related distributions (holders at miss time, etc.).
type Hist struct {
	// Buckets[i] counts observations of value i.
	Buckets []int64
}

// Observe records one observation of value v (v >= 0).
func (h *Hist) Observe(v int) {
	if v < 0 {
		panic(fmt.Sprintf("event: negative histogram value %d", v))
	}
	for len(h.Buckets) <= v {
		h.Buckets = append(h.Buckets, 0)
	}
	h.Buckets[v]++
}

// AddHist merges other into h.
func (h *Hist) AddHist(other Hist) {
	for v, n := range other.Buckets {
		for len(h.Buckets) <= v {
			h.Buckets = append(h.Buckets, 0)
		}
		h.Buckets[v] += n
	}
}

// Total returns the number of observations.
func (h *Hist) Total() int64 {
	var t int64
	for _, n := range h.Buckets {
		t += n
	}
	return t
}

// Pct returns the percentage of observations with value v.
func (h *Hist) Pct(v int) float64 {
	t := h.Total()
	if t == 0 || v < 0 || v >= len(h.Buckets) {
		return 0
	}
	return 100 * float64(h.Buckets[v]) / float64(t)
}

// PctAtMost returns the percentage of observations with value <= v.
// The paper's headline Figure 1 statistic is PctAtMost(1) > 85.
func (h *Hist) PctAtMost(v int) float64 {
	t := h.Total()
	if t == 0 {
		return 0
	}
	var n int64
	for i := 0; i <= v && i < len(h.Buckets); i++ {
		n += h.Buckets[i]
	}
	return 100 * float64(n) / float64(t)
}

// Mean returns the average observed value.
func (h *Hist) Mean() float64 {
	t := h.Total()
	if t == 0 {
		return 0
	}
	var sum int64
	for v, n := range h.Buckets {
		sum += int64(v) * n
	}
	return float64(sum) / float64(t)
}

// String renders the histogram one bucket per line with percentages.
func (h *Hist) String() string {
	var b strings.Builder
	for v, n := range h.Buckets {
		if n == 0 {
			continue
		}
		fmt.Fprintf(&b, "%3d: %10d (%6.2f%%)\n", v, n, h.Pct(v))
	}
	return b.String()
}
