package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"sync"

	"dirsim/internal/core"
	"dirsim/internal/trace"
	"dirsim/internal/workload"
)

// Key is a content hash identifying a cacheable artifact — a generated
// trace, a simulation result, or an aggregate. Two artifacts share a key
// exactly when every input that can influence their contents is equal, so
// a key hit is always safe to reuse and a changed input (seed, CPU count,
// profile knob, scheme, cost option, block geometry) always misses.
type Key [sha256.Size]byte

// IsZero reports whether k is the zero key; zero-keyed jobs are never
// cached or deduplicated.
func (k Key) IsZero() bool { return k == Key{} }

// String renders a short hex prefix for logs and metrics.
func (k Key) String() string { return hex.EncodeToString(k[:6]) }

func (k Key) hex() string { return hex.EncodeToString(k[:]) }

// KeyHex renders the full hex form of k — the form durable store tiers
// index entries by, so API consumers can correlate results with store
// contents.
func KeyHex(k Key) string { return k.hex() }

// hashOf hashes the parts with separators so adjacent fields cannot
// collide by concatenation.
func hashOf(parts ...string) Key {
	h := sha256.New()
	for _, p := range parts {
		io.WriteString(h, p)
		h.Write([]byte{0})
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// maxTraceKeys bounds the TraceKey memo. A sweep names a handful of
// workloads and a paper regeneration fifteen; a process that has seen
// more distinct ones than this starts the memo over.
const maxTraceKeys = 256

// traceKeys memoises TraceKey: rendering a Config with %#v and hashing it
// costs microseconds, and every layer that touches a spec (expansion,
// planning, routing, dispatch) asks for the same few workloads' keys.
var traceKeys = struct {
	sync.Mutex
	m map[workload.Config]Key
}{m: make(map[workload.Config]Key)}

// TraceKey identifies a generated trace by its full workload
// specification — every Profile parameter, the machine size, length and
// seed — plus the global block geometry, since a changed block size
// changes every derived block address. Configs that compare equal
// generate the same trace, so they may share the first one's key.
func TraceKey(cfg workload.Config) Key {
	traceKeys.Lock()
	k, ok := traceKeys.m[cfg]
	traceKeys.Unlock()
	if ok {
		return k
	}
	k = hashOf("trace",
		fmt.Sprintf("block=%d", trace.BlockBytes),
		fmt.Sprintf("%#v", cfg))
	traceKeys.Lock()
	if len(traceKeys.m) >= maxTraceKeys {
		clear(traceKeys.m)
	}
	traceKeys.m[cfg] = k
	traceKeys.Unlock()
	return k
}

// canonicalScheme maps a scheme name to the engine's canonical spelling
// (scheme lookup is case-insensitive, so "dir0b" and "Dir0B" must share
// cache entries). Unknown names fall back to lowercase; they fail with a
// proper error at plan time.
func canonicalScheme(name string, cpus int) string {
	if cpus < 1 {
		cpus = 4
	}
	if p, err := core.NewByName(name, cpus); err == nil {
		return p.Name()
	}
	return strings.ToLower(name)
}

// mergeKey identifies the aggregate of several cached results; it is
// order-sensitive, matching sim.Merge's order-sensitive trace naming.
func mergeKey(keys []Key) Key {
	parts := make([]string, 0, len(keys)+1)
	parts = append(parts, "merge")
	for _, k := range keys {
		parts = append(parts, k.hex())
	}
	return hashOf(parts...)
}
