package obs

import (
	"reflect"
	"sync"
	"testing"
)

// TestConcurrentCounters hammers shared instruments from many goroutines;
// under -race this doubles as the data-race check for the hot paths.
func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("test.counter")
			ga := r.Gauge("test.gauge")
			h := r.Histogram("test.hist", []int64{10, 100, 1000})
			for i := 0; i < perG; i++ {
				c.Inc()
				ga.Add(1)
				h.Observe(int64(i))
			}
		}()
	}
	wg.Wait()

	if got := r.Counter("test.counter").Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := r.Gauge("test.gauge").Value(); got != goroutines*perG {
		t.Errorf("gauge = %d, want %d", got, goroutines*perG)
	}
	h := r.Histogram("test.hist", nil).Snapshot()
	if h.Count != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", h.Count, goroutines*perG)
	}
	// Per goroutine: values 0..10 land ≤10 (11 of them), 11..100 in the
	// next bucket (90), 101..999 in the third (899), rest overflow.
	want := []int64{11 * goroutines, 90 * goroutines, 899 * goroutines, 0}
	for i, w := range want {
		if h.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, h.Counts[i], w)
		}
	}
	var sum int64
	for i := int64(0); i < perG; i++ {
		sum += i
	}
	if h.Sum != sum*goroutines {
		t.Errorf("histogram sum = %d, want %d", h.Sum, sum*goroutines)
	}
}

func TestRegistryHandlesAreStable(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Error("same name resolved to different counters")
	}
	if r.Histogram("h", []int64{1, 2}) != r.Histogram("h", nil) {
		t.Error("same name resolved to different histograms")
	}
}

func TestHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unsorted bounds accepted")
		}
	}()
	newHistogram([]int64{10, 10})
}

// TestObserveN: n observations recorded at once land exactly as n
// single observations do — bucket, count and sum.
func TestObserveN(t *testing.T) {
	r := NewRegistry()
	one, many := r.Histogram("one", InvalBuckets), r.Histogram("many", InvalBuckets)
	for _, o := range []struct{ v, n int64 }{{0, 5}, {1, 3}, {3, 2}, {40, 1}, {7, 0}} {
		for i := int64(0); i < o.n; i++ {
			one.Observe(o.v)
		}
		many.ObserveN(o.v, o.n)
	}
	if got, want := many.Snapshot(), one.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("ObserveN snapshot %+v, want %+v", got, want)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]int64{10, 100, 1000})
	for i := 0; i < 100; i++ {
		h.Observe(int64(i % 10)) // all 100 observations in the first bucket
	}
	s := h.Snapshot()
	// Whole population ≤ 10: interpolation inside the first bucket.
	if got := s.Quantile(0.5); got != 5 {
		t.Errorf("p50 = %g, want 5", got)
	}
	if got := s.Quantile(1); got != 10 {
		t.Errorf("p100 = %g, want 10", got)
	}

	h2 := newHistogram([]int64{10})
	h2.Observe(99) // +Inf bucket only
	if got := h2.Snapshot().Quantile(0.5); got != 10 {
		t.Errorf("+Inf-bucket quantile = %g, want largest finite bound 10", got)
	}

	var empty HistogramSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %g, want 0", got)
	}

	h3 := newHistogram([]int64{0, 1, 2})
	h3.Observe(0)
	h3.Observe(0)
	h3.Observe(1)
	// Zero-valued first bound must not interpolate below zero.
	if got := h3.Snapshot().Quantile(0.25); got != 0 {
		t.Errorf("p25 = %g, want 0", got)
	}
}

func TestSnapshotIsACopy(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc()
	s := r.Snapshot()
	r.Counter("c").Inc()
	if s.Counters["c"] != 1 {
		t.Errorf("snapshot mutated by later increments: %d", s.Counters["c"])
	}
}
