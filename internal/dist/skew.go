package dist

import (
	"sync"
	"time"
)

// skewEstimator estimates the coordinator-minus-worker clock offset from
// request round trips, Cristian's algorithm: given a request sent at t0,
// answered with the server's clock s, and received at t2, the offset
// sample is s - (t0+t2)/2, accurate to ±RTT/2. The estimator keeps the
// minimum-RTT sample seen — tightest error bound — which also filters
// out round trips inflated by client-side retries and backoff sleeps.
// Safe for concurrent use.
type skewEstimator struct {
	mu       sync.Mutex
	offsetNS int64
	rttNS    int64
	samples  int64
}

// Observe records one round trip. The server stamps its clock on reply,
// so the time it held the request parked first is flight in neither
// direction. serverUnixNS == 0 (a pre-skew coordinator) and a held the
// round trip cannot contain are ignored.
func (e *skewEstimator) Observe(t0, t2 time.Time, serverUnixNS int64, held time.Duration) {
	rtt := (t2.Sub(t0) - held).Nanoseconds()
	if e == nil || serverUnixNS == 0 || held < 0 || rtt < 0 {
		return
	}
	mid := t2.UnixNano() - rtt/2
	off := serverUnixNS - mid
	e.mu.Lock()
	if e.samples == 0 || rtt < e.rttNS {
		e.offsetNS, e.rttNS = off, rtt
	}
	e.samples++
	e.mu.Unlock()
}

// Offset returns the current coordinator-minus-worker estimate in
// nanoseconds; ok is false before any sample.
func (e *skewEstimator) Offset() (ns int64, ok bool) {
	if e == nil {
		return 0, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.offsetNS, e.samples > 0
}
