// Package obs is the repository's observability layer: typed metric
// instruments on a Registry, a structured JSONL run journal that rides a
// context.Context to whatever does the work, request trace identities,
// pprof capture, and the run manifest written by cmd/experiments. It depends only on the standard
// library and the leaf packages internal/event and internal/obs/trace,
// so any package — the execution engine included — can report into it
// without import cycles.
//
// Hot paths are single atomic operations: a Counter or Gauge update is
// one atomic add, a Histogram observation is a binary search over a
// handful of bucket bounds plus three atomic adds. Instruments are
// resolved from the Registry once (a mutex-guarded map lookup) and the
// returned handles are then used lock-free.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use; all methods are safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the value to stay monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can move in both directions (pool occupancy,
// cache population). The zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets. Bounds are inclusive
// upper limits in ascending order; one implicit +Inf bucket catches the
// overflow. Observations also accumulate a total count and sum, so mean
// latency/size falls out of any snapshot.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; the last bucket is +Inf
	count  atomic.Int64
	sum    atomic.Int64
}

func newHistogram(bounds []int64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending: %v", bounds))
		}
	}
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) { h.ObserveN(v, 1) }

// ObserveN records n observations of the value v at once, as n calls to
// Observe would.
func (h *Histogram) ObserveN(v, n int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(n)
	h.count.Add(n)
	h.sum.Add(v * n)
}

// ObserveDuration records a duration in microseconds — the unit every
// duration histogram in this repository uses.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Microseconds()) }

// HistogramSnapshot is a point-in-time copy of a histogram's state.
// Counts has one entry per bound plus a final +Inf entry.
type HistogramSnapshot struct {
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
}

// Snapshot copies the histogram's current state. Buckets are read
// without a global lock, so a snapshot taken during concurrent
// observation may be torn by a few in-flight counts — fine for
// monitoring, which is all it is for.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]int64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Quantile estimates the q-quantile (q in [0, 1]) from the snapshot's
// buckets by linear interpolation within the containing bucket — the
// same estimate Prometheus's histogram_quantile computes. A quantile
// landing in the +Inf bucket reports the largest finite bound (the
// buckets cannot resolve anything beyond it). Returns 0 for an empty
// histogram.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum int64
	for i, c := range s.Counts {
		prev := float64(cum)
		cum += c
		if float64(cum) < rank || c == 0 {
			continue
		}
		if i >= len(s.Bounds) {
			return float64(s.Bounds[len(s.Bounds)-1])
		}
		hi := float64(s.Bounds[i])
		if i == 0 {
			if hi <= 0 {
				return hi
			}
			return hi * (rank - prev) / float64(c)
		}
		lo := float64(s.Bounds[i-1])
		return lo + (hi-lo)*(rank-prev)/float64(c)
	}
	return float64(s.Bounds[len(s.Bounds)-1])
}

// DurationBucketsUS is the default bound set for duration histograms, in
// microseconds: 100µs up to 10s, one bucket per decade.
var DurationBucketsUS = []int64{100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000}

// InvalBuckets are the histogram bounds for invalidation-count
// distributions — the resolution of the paper's Figure 1, whose headline
// is how much of the mass sits at 0 and 1.
var InvalBuckets = []int64{0, 1, 2, 4, 8, 16, 32}

// Registry is a namespace of instruments. Lookups get-or-create, so
// independent packages can share instrument names without coordination;
// the returned handles are stable for the registry's lifetime.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use; later calls reuse the first bounds.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every instrument on a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the current value of every instrument.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}
