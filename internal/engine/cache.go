package engine

import (
	"context"
	"sync"

	"dirsim/internal/obs"
)

// flightCache is a keyed single-flight cache: the first claimant of a key
// owns the computation while concurrent claimants wait for its result.
// Failed computations are evicted so a later claimant can retry, and so
// is a value a verifying reader found corrupted. Fulfilled values are
// otherwise retained until the engine's owner trims them (Engine.Trim).
// A process that runs experiments (cmd/experiments, the service) never
// trims: its working set is a handful of traces and a few hundred
// results. A fleet worker trims before and after every job, down to the
// one trace its lease names, because over its life it is leased an
// unbounded stream of traces. n is the population gauge
// (engine.cache.traces or engine.cache.results), moved under mu with
// every entry added or removed, in flight or fulfilled.
type flightCache struct {
	mu sync.Mutex
	m  map[Key]*flight
	n  *obs.Gauge
}

type flight struct {
	done chan struct{}
	val  any
	err  error
	// sum is the integrity stamp recorded when the value entered the
	// cache (a content fingerprint of the result or trace); stamped marks
	// it valid. In verification mode every later hit recomputes the
	// fingerprint and compares: a mismatch means the cached value mutated
	// after the fact, and the entry is evicted and recomputed instead of
	// served.
	sum     uint64
	stamped bool
}

func newFlightCache(n *obs.Gauge) *flightCache {
	return &flightCache{m: make(map[Key]*flight), n: n}
}

// claim returns the flight for k and whether the caller owns it. An owner
// must call fulfill exactly once; a non-owner waits on the flight.
func (c *flightCache) claim(k Key) (f *flight, owner bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.m[k]; ok {
		return f, false
	}
	f = &flight{done: make(chan struct{})}
	c.m[k] = f
	c.n.Add(1)
	return f, true
}

// peek reports whether k is present, fulfilled or in flight.
func (c *flightCache) peek(k Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.m[k]
	return ok
}

// fulfill publishes the owner's result, with its integrity stamp, to all
// waiters. Errors evict the entry first, so the computation can be
// retried by a later claimant.
func (c *flightCache) fulfill(k Key, f *flight, val any, err error, sum uint64, stamped bool) {
	if err != nil {
		c.evict(k, f)
	}
	f.sum, f.stamped = sum, stamped && err == nil
	f.val, f.err = val, err
	close(f.done)
}

// evict removes k if it still maps to f, so a reader that found the entry
// corrupted can force a recompute without racing a fresh claimant that
// already replaced it.
func (c *flightCache) evict(k Key, f *flight) {
	c.mu.Lock()
	if c.m[k] == f {
		delete(c.m, k)
		c.n.Add(-1)
	}
	c.mu.Unlock()
}

// trim removes every fulfilled entry but keep's. A flight still in
// progress stays: its owner's fulfill and its waiters are unaffected, and
// a waiter already holding a trimmed flight still reads its value.
func (c *flightCache) trim(keep Key) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, f := range c.m {
		select {
		case <-f.done:
			if k != keep {
				delete(c.m, k)
				c.n.Add(-1)
			}
		default:
		}
	}
}

// wait blocks until the flight is fulfilled or the context is cancelled.
func (f *flight) wait(ctx context.Context) (any, error) {
	select {
	case <-f.done:
		return f.val, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
