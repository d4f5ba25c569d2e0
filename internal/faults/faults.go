// Package faults is a deterministic, seed-driven fault-injection layer
// for the execution engine. An Injector decides — purely as a function of
// its seed, a site name, and a per-site counter — whether a given fault
// fires: a job body panics or fails with a retryable spurious error, a
// simulation's reference stream is cut short, or a cache entry is stored
// with a mismatched integrity stamp.
//
// Every decision is stateless (a hash of seed × site × counter), so the
// fault schedule is reproducible from the seed alone and independent of
// goroutine interleaving: two runs over the same job graph inject exactly
// the same faults at exactly the same places, which is what makes fault
// runs debuggable and the soak matrix assertable. A nil *Injector is
// valid and injects nothing; with faults off the engine pays only nil
// checks, never hashing.
package faults

import (
	"fmt"
	"time"

	"dirsim/internal/trace"
)

// Config sets the per-site probabilities of each fault class. The zero
// value injects nothing. Probabilities are clamped to [0, 1] at decision
// time.
type Config struct {
	// Seed drives the whole schedule; two injectors with equal Config
	// make identical decisions everywhere.
	Seed uint64
	// Panic is the probability, per job-body attempt, that the body
	// panics at entry (exercising the engine's panic isolation).
	Panic float64
	// Spurious is the probability, per job-body attempt, that the body
	// fails at entry with a retryable *Spurious error (exercising
	// retry-with-backoff).
	Spurious float64
	// Truncate is the probability, per simulation source, that the
	// reference stream is silently cut short at a seed-chosen point
	// (exercising the engine's reference-count integrity check).
	Truncate float64
	// Poison is the probability, per cache store, that the entry is
	// stamped with a corrupted checksum, so every subsequent hit is
	// rejected and recomputed (exercising cache-poisoning defense).
	Poison float64

	// The transport class below models an unreliable network between
	// distributed-execution processes (internal/dist). Each decision is
	// per message — a (site, counter) pair, where the site names one
	// peer×route and the counter its message sequence number — so a
	// worker replaying the same request sequence sees the same faults.

	// Drop is the probability, per message, that a request vanishes
	// before reaching the server (a severed connection: no side effects,
	// the client sees a transport error).
	Drop float64
	// DropReply is the probability, per message, that the request is
	// delivered — side effects happen — but the response is lost, so the
	// client cannot tell whether the server acted (exercising lease
	// expiry and idempotent result pushes).
	DropReply float64
	// Duplicate is the probability, per message, that the request is
	// delivered twice (exercising at-most-once lease grants and
	// duplicate result discarding).
	Duplicate float64
	// WireCorrupt is the probability, per message, that a seed-chosen
	// byte of the request or response body is flipped in flight
	// (exercising fingerprint revalidation and decode hardening).
	WireCorrupt float64
	// WireDelay is the probability, per message, that delivery stalls
	// for WireDelayDur (exercising hedged re-dispatch of stragglers).
	WireDelay float64
	// WireDelayDur is the injected per-message delay (default 50ms).
	WireDelayDur time.Duration
	// Disconnect is the probability, per message, that the response is
	// cut mid-stream: the client reads a truncated body then an error
	// (exercising partial-read recovery).
	Disconnect float64
	// Partition is the probability, per window of PartitionWindow
	// consecutive messages from one site, that the whole window is
	// dropped — a transient network partition isolating that worker.
	Partition float64
	// PartitionWindow is the partition burst length in messages
	// (default 8).
	PartitionWindow int64
	// Crash is the probability, per leased job, that the worker
	// abandons the job and dies without a word — no result push, no
	// more heartbeats (exercising lease-expiry reassignment and the
	// coordinator's degrade-to-local ladder).
	Crash float64
}

// Enabled reports whether any fault class has a non-zero probability.
func (c Config) Enabled() bool {
	return c.Panic > 0 || c.Spurious > 0 || c.Truncate > 0 || c.Poison > 0 ||
		c.TransportEnabled() || c.Crash > 0
}

// TransportEnabled reports whether any wire-level fault class has a
// non-zero probability (worker crashes are decided per job, not per
// message, and are excluded here).
func (c Config) TransportEnabled() bool {
	return c.Drop > 0 || c.DropReply > 0 || c.Duplicate > 0 ||
		c.WireCorrupt > 0 || c.WireDelay > 0 || c.Disconnect > 0 || c.Partition > 0
}

// Injector makes deterministic fault decisions. All methods are safe on a
// nil receiver (no fault fires) and for concurrent use: decisions are
// pure functions of (seed, site, counter).
type Injector struct {
	cfg Config
}

// New returns an injector for the configuration. The caller keeps the
// convention that a nil *Injector means "faults off"; New itself always
// returns a usable injector, even for a zero Config.
func New(cfg Config) *Injector {
	if cfg.WireDelayDur <= 0 {
		cfg.WireDelayDur = 50 * time.Millisecond
	}
	if cfg.PartitionWindow <= 0 {
		cfg.PartitionWindow = 8
	}
	return &Injector{cfg: cfg}
}

// roll returns a uniform draw in [0, 1) for the decision identified by
// (kind, site, n). It is the package's only randomness: FNV-1a over the
// identifying tuple, finalized with a splitmix64 mix so near-identical
// sites decorrelate.
func (i *Injector) roll(kind, site string, n int64) float64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	step := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	for j := 0; j < len(kind); j++ {
		step(kind[j])
	}
	step(0)
	for j := 0; j < len(site); j++ {
		step(site[j])
	}
	step(0)
	h ^= uint64(n)
	h *= prime64
	h ^= i.cfg.Seed
	h *= prime64
	// splitmix64 finalizer.
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11) / (1 << 53)
}

// Panic is the value an injected panic carries, so recovery sites can
// recognize (and tests can assert) injected panics.
type Panic struct {
	Site    string
	Attempt int
}

func (p *Panic) String() string {
	return fmt.Sprintf("faults: injected panic at %s (attempt %d)", p.Site, p.Attempt)
}

// Spurious is an injected transient failure. It is retryable: a
// subsequent attempt at the same site draws independently and typically
// succeeds.
type Spurious struct {
	Site    string
	Attempt int
}

func (e *Spurious) Error() string {
	return fmt.Sprintf("faults: injected spurious failure at %s (attempt %d)", e.Site, e.Attempt)
}

// Retryable marks the error as worth re-attempting; the engine's
// retry-with-backoff keys off this.
func (e *Spurious) Retryable() bool { return true }

// JobFault decides the fate of one job-body attempt at the given site: it
// panics with a *Panic, returns a *Spurious error, or returns nil. Each
// attempt draws independently, so a spurious failure on attempt 0 can
// succeed on attempt 1 — exactly the transient failures retry exists for.
func (i *Injector) JobFault(site string, attempt int) error {
	if i == nil {
		return nil
	}
	if i.cfg.Panic > 0 && i.roll("panic", site, int64(attempt)) < i.cfg.Panic {
		panic(&Panic{Site: site, Attempt: attempt})
	}
	if i.cfg.Spurious > 0 && i.roll("spurious", site, int64(attempt)) < i.cfg.Spurious {
		return &Spurious{Site: site, Attempt: attempt}
	}
	return nil
}

// TruncateAfter reports whether the stream at site should be cut short,
// and after how many references. limit is the stream's approximate
// length; the cut point is uniform in [0, limit).
func (i *Injector) TruncateAfter(site string, limit int64) (int64, bool) {
	if i == nil || i.cfg.Truncate <= 0 || limit <= 0 {
		return 0, false
	}
	if i.roll("truncate", site, 0) >= i.cfg.Truncate {
		return 0, false
	}
	return int64(i.roll("truncate.at", site, 1) * float64(limit)), true
}

// WrapSource applies the site's stream faults to src: when the truncation
// schedule targets this site, the returned source ends the stream early
// at the seed-chosen point, reporting a clean end-of-stream — the
// signature of a silently truncated trace. Otherwise src is returned
// unchanged. approxLen is the expected stream length (a workload's
// configured reference count).
func (i *Injector) WrapSource(site string, src trace.Source, approxLen int64) trace.Source {
	if n, ok := i.TruncateAfter(site, approxLen); ok {
		return trace.Limit(src, int(n))
	}
	return src
}

// PoisonStamp reports whether the cache entry stored under key should be
// stamped with a corrupted checksum. The decision is per key, so a
// poisoned slot stays poisoned: every hit on it is rejected and the work
// recomputed — the cache degrades to a recompute, never to serving bad
// data.
func (i *Injector) PoisonStamp(key string) bool {
	return i != nil && i.cfg.Poison > 0 && i.roll("poison", key, 0) < i.cfg.Poison
}

// --- transport faults ---

// TransportDecision is the fate of one message on the wire. At most one
// destructive class fires per message (drop wins over duplicate wins over
// corrupt wins over disconnect, so a schedule stays interpretable); delay
// composes with any of them, modelling a slow then-broken link.
type TransportDecision struct {
	// Drop severs the connection before delivery: no side effects, the
	// sender sees a transport error.
	Drop bool
	// DropReply delivers the request but loses the response.
	DropReply bool
	// Duplicate delivers the request twice.
	Duplicate bool
	// Corrupt flips one body byte in flight; CorruptRequest selects
	// which direction (the request body when it has one, else the
	// response).
	Corrupt        bool
	CorruptRequest bool
	// Disconnect cuts the response mid-stream.
	Disconnect bool
	// Delay stalls delivery for this long before anything else happens.
	Delay time.Duration
}

// TransportFault decides the fate of message n at the given transport
// site. A site names one peer × route (e.g. "dist:w1:lease"); n is the
// site's message counter. The decision is a pure function of
// seed × site × n, so a peer replaying the same message sequence hits the
// same faults — what makes transport soak failures replayable from the
// seed alone. A partitioned site (see Partitioned) should be checked
// first; partition drops every message of its window.
func (i *Injector) TransportFault(site string, n int64) TransportDecision {
	var d TransportDecision
	if i == nil {
		return d
	}
	c := i.cfg
	if c.WireDelay > 0 && i.roll("wiredelay", site, n) < c.WireDelay {
		d.Delay = c.WireDelayDur
	}
	switch {
	case c.Drop > 0 && i.roll("drop", site, n) < c.Drop:
		d.Drop = true
	case c.DropReply > 0 && i.roll("dropreply", site, n) < c.DropReply:
		d.DropReply = true
	case c.Duplicate > 0 && i.roll("dup", site, n) < c.Duplicate:
		d.Duplicate = true
	case c.WireCorrupt > 0 && i.roll("wirecorrupt", site, n) < c.WireCorrupt:
		d.Corrupt = true
		d.CorruptRequest = i.roll("wirecorrupt.side", site, n) < 0.5
	case c.Disconnect > 0 && i.roll("disconnect", site, n) < c.Disconnect:
		d.Disconnect = true
	}
	return d
}

// Partitioned reports whether message n at the given site falls inside an
// injected partition window: messages are grouped into windows of
// PartitionWindow, and each window is dropped wholesale with probability
// Partition. Windowing makes partitions look like real ones — a burst of
// consecutive losses, not independent coin flips — while staying a pure
// function of seed × site × window index.
func (i *Injector) Partitioned(site string, n int64) bool {
	if i == nil || i.cfg.Partition <= 0 {
		return false
	}
	return i.roll("partition", site, n/i.cfg.PartitionWindow) < i.cfg.Partition
}

// CorruptByte returns the position (reduced modulo the body length by the
// caller) and XOR mask for an injected wire corruption of message n at
// site. The mask is never zero, so a fired corruption always changes the
// byte.
func (i *Injector) CorruptByte(site string, n int64) (pos int64, mask byte) {
	if i == nil {
		return 0, 1
	}
	pos = int64(i.roll("wirecorrupt.pos", site, n) * (1 << 31))
	mask = byte(1 + int(i.roll("wirecorrupt.mask", site, n)*255))
	return pos, mask
}

// DisconnectAfter returns the fraction of the body delivered before an
// injected mid-stream disconnect of message n at site, in [0.1, 0.9] so a
// disconnect is neither a clean drop nor a complete delivery.
func (i *Injector) DisconnectAfter(site string, n int64) float64 {
	if i == nil {
		return 0.5
	}
	return 0.1 + 0.8*i.roll("disconnect.at", site, n)
}

// WorkerCrash reports whether the worker at site should crash while
// holding the lease on the job identified by key: abandon the job, stop
// heartbeating, and die without a word. The decision is per (site, key),
// so the same seed kills the same worker on the same job every run.
func (i *Injector) WorkerCrash(site, key string) bool {
	if i == nil || i.cfg.Crash <= 0 {
		return false
	}
	return i.roll("crash", site+"|"+key, 0) < i.cfg.Crash
}
