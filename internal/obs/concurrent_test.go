package obs

import (
	"sync"
	"testing"
)

// TestHistogramConcurrentObserveAndQuantile hammers one histogram from
// many writers while readers snapshot and derive quantiles mid-flight.
// Under -race this pins the lock-free counters; the final snapshot must
// account for every observation with sane quantiles.
func TestHistogramConcurrentObserveAndQuantile(t *testing.T) {
	h := NewRegistry().Histogram("test.latency.us", DurationBucketsUS)
	const writers, perWriter = 8, 5_000
	var readers, writersWG sync.WaitGroup
	stop := make(chan struct{})

	// Readers: snapshots taken while writes are in flight must be
	// internally consistent enough to quantile without panicking, and
	// monotone in q.
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := h.Snapshot()
				p50, p99 := s.Quantile(0.50), s.Quantile(0.99)
				if p50 < 0 || p99 < 0 || p50 > p99 {
					t.Errorf("mid-flight quantiles inconsistent: p50=%v p99=%v", p50, p99)
					return
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		w := w
		writersWG.Add(1)
		go func() {
			defer writersWG.Done()
			for i := 0; i < perWriter; i++ {
				// Spread observations across the bucket range.
				h.Observe(int64((w*perWriter + i) % 2_000_000))
			}
		}()
	}
	// Wait for all writers, then stop the readers.
	writersWG.Wait()
	close(stop)
	readers.Wait()

	s := h.Snapshot()
	if s.Count != writers*perWriter {
		t.Fatalf("count = %d, want %d", s.Count, writers*perWriter)
	}
	var inBuckets int64
	for _, n := range s.Counts {
		inBuckets += n
	}
	if inBuckets != s.Count {
		t.Errorf("bucket counts sum to %d, want %d (no lost observations)", inBuckets, s.Count)
	}
	if p50, p99 := s.Quantile(0.50), s.Quantile(0.99); p50 <= 0 || p99 < p50 {
		t.Errorf("final quantiles wrong: p50=%v p99=%v", p50, p99)
	}
}
