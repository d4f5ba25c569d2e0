package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dirsim/internal/obs"
	"dirsim/internal/sim"
	"dirsim/internal/workload"
)

// testResult simulates a tiny run so stored payloads are the real thing:
// populated counts, histograms, and both paper cost models.
func testResult(t *testing.T, scheme string, seed uint64) *sim.Result {
	t.Helper()
	cfg := workload.POPSConfig(4, 4000)
	cfg.Seed = seed
	tr, err := workload.Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	r, err := sim.SimulateTrace(scheme, tr, sim.Options{})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	return r
}

func open(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestResultRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	r := testResult(t, "Dir1B", 7)
	key := strings.Repeat("ab", 32)
	if _, ok, err := s.LoadResult(key); ok || err != nil {
		t.Fatalf("load before store: ok=%v err=%v", ok, err)
	}
	if err := s.StoreResult(key, r, r.Fingerprint()); err != nil {
		t.Fatalf("StoreResult: %v", err)
	}
	got, ok, err := s.LoadResult(key)
	if !ok || err != nil {
		t.Fatalf("LoadResult: ok=%v err=%v", ok, err)
	}
	if got.Fingerprint() != r.Fingerprint() {
		t.Fatalf("fingerprint changed across the disk round trip: %#x != %#x",
			got.Fingerprint(), r.Fingerprint())
	}
	if got.Scheme != r.Scheme || got.Counts != r.Counts {
		t.Fatalf("decoded result differs: %+v vs %+v", got.Counts, r.Counts)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 || st.Entries != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	tr, err := workload.Generate(workload.THORConfig(4, 3000))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	key := strings.Repeat("cd", 32)
	if err := s.StoreTrace(key, tr, tr.Fingerprint()); err != nil {
		t.Fatalf("StoreTrace: %v", err)
	}
	got, ok, err := s.LoadTrace(key)
	if !ok || err != nil {
		t.Fatalf("LoadTrace: ok=%v err=%v", ok, err)
	}
	if got.Fingerprint() != tr.Fingerprint() {
		t.Fatalf("trace fingerprint changed across the disk round trip")
	}
}

// TestCorruptResultRejected flips one byte of a stored result and asserts
// the load rejects it as corrupt, evicts the file, and counts the
// rejection — the store's core promise: degrade to a recompute, never
// serve bad data.
func TestCorruptResultRejected(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	r := testResult(t, "Dir0B", 9)
	key := strings.Repeat("ef", 32)
	if err := s.StoreResult(key, r, r.Fingerprint()); err != nil {
		t.Fatalf("StoreResult: %v", err)
	}
	path := filepath.Join(dir, "res", key[:2], key+".dsr")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read stored file: %v", err)
	}
	// Flip a bit of Counts.Total inside the payload, so the payload still
	// decodes but the content no longer matches the stamp.
	payload, err := r.AppendBinary(nil)
	if err != nil || !bytes.HasSuffix(data, payload) {
		t.Fatalf("stored entry does not end in the result's binary form (err %v)", err)
	}
	data[totalOffset(r, len(data)-len(payload))] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("corrupt file: %v", err)
	}
	_, ok, err := s.LoadResult(key)
	if ok {
		t.Fatalf("corrupted entry served")
	}
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("want ErrCorrupt from the fingerprint check, got %v", err)
	}
	var c interface{ Corrupt() bool }
	if !errors.As(err, &c) || !c.Corrupt() {
		t.Fatalf("corruption error does not report Corrupt(): %v", err)
	}
	if _, statErr := os.Stat(path); !errors.Is(statErr, os.ErrNotExist) {
		t.Fatalf("corrupt file not evicted: %v", statErr)
	}
	if st := s.Stats(); st.Rejected != 1 || st.Entries != 0 {
		t.Fatalf("stats after rejection: %+v", st)
	}
	// A second load is a clean miss — the eviction is complete.
	if _, ok, err := s.LoadResult(key); ok || err != nil {
		t.Fatalf("load after eviction: ok=%v err=%v", ok, err)
	}
}

// totalOffset is where Counts.Total's low byte sits in the stored entry of
// r whose payload starts at start: after the scheme and trace strings
// (one length byte each, for names this short) and the event counts.
func totalOffset(r *sim.Result, start int) int {
	return start + 1 + len(r.Scheme) + 1 + len(r.Trace) + 8*len(r.Counts.N)
}

// TestUndecodableResultRejected keeps a valid header and cuts the payload
// short, so the entry fails to decode at all.
func TestUndecodableResultRejected(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	r := testResult(t, "Dir1NB", 3)
	key := strings.Repeat("aa", 32)
	if err := s.StoreResult(key, r, r.Fingerprint()); err != nil {
		t.Fatalf("StoreResult: %v", err)
	}
	path := filepath.Join(dir, "res", key[:2], key+".dsr")
	garbage := append(appendHeader(nil, results.magic, key, r.Fingerprint()), "\x05Dir"...)
	if err := os.WriteFile(path, garbage, 0o644); err != nil {
		t.Fatalf("corrupt file: %v", err)
	}
	if _, ok, err := s.LoadResult(key); ok || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt on undecodable entry, got ok=%v err=%v", ok, err)
	}
}

// TestPoisonedStampRejected stores with a deliberately wrong stamp — the
// shape of the engine's fault-injected poisoned cache stores.
func TestPoisonedStampRejected(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	r := testResult(t, "Dragon", 5)
	key := strings.Repeat("bb", 32)
	if err := s.StoreResult(key, r, ^r.Fingerprint()); err != nil {
		t.Fatalf("StoreResult: %v", err)
	}
	if _, ok, err := s.LoadResult(key); ok || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("poisoned stamp not rejected: ok=%v err=%v", ok, err)
	}
}

// TestReopenIndexesExisting writes through one handle and reads through a
// fresh one — the warm-start path.
func TestReopenIndexesExisting(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir, Options{})
	r := testResult(t, "Dir1B", 11)
	key := strings.Repeat("cc", 32)
	if err := s1.StoreResult(key, r, r.Fingerprint()); err != nil {
		t.Fatalf("StoreResult: %v", err)
	}
	s2 := open(t, dir, Options{})
	if st := s2.Stats(); st.Entries != 1 {
		t.Fatalf("reopen did not index the entry: %+v", st)
	}
	got, ok, err := s2.LoadResult(key)
	if !ok || err != nil || got.Fingerprint() != r.Fingerprint() {
		t.Fatalf("reopen load: ok=%v err=%v", ok, err)
	}
}

// TestCrossProcessVisibility writes through a second handle opened on the
// same directory after the first; the first handle must still find the
// entry (index misses fall through to the disk).
func TestCrossProcessVisibility(t *testing.T) {
	dir := t.TempDir()
	a := open(t, dir, Options{})
	b := open(t, dir, Options{})
	r := testResult(t, "Dir0B", 13)
	key := strings.Repeat("dd", 32)
	if err := b.StoreResult(key, r, r.Fingerprint()); err != nil {
		t.Fatalf("StoreResult: %v", err)
	}
	if !a.HasResult(key) {
		t.Fatalf("HasResult missed an entry written by another handle")
	}
	if _, ok, err := a.LoadResult(key); !ok || err != nil {
		t.Fatalf("LoadResult across handles: ok=%v err=%v", ok, err)
	}
}

// TestOpenSweepsTempFiles plants two temp files — one stale (a crashed
// writer's leftover, mtime pushed into the past) and one fresh (a live
// writer in another process, mid-rename) — and asserts Open removes only
// the stale one and indexes neither as an entry.
func TestOpenSweepsTempFiles(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "res", "ee")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(sub, strings.Repeat("ee", 32)+".dsr.tmp12345")
	if err := os.WriteFile(stale, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * staleTempAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(sub, strings.Repeat("ef", 32)+".dsr.tmp67890")
	if err := os.WriteFile(fresh, []byte("in flight"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := open(t, dir, Options{})
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale temp file survived Open")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("fresh temp file swept — Open yanked a live writer's rename source: %v", err)
	}
	if st := s.Stats(); st.Entries != 0 {
		t.Fatalf("temp file was indexed: %+v", st)
	}
}

// TestLRUEviction bounds the store and asserts the least recently used
// entries are the ones evicted.
func TestLRUEviction(t *testing.T) {
	s := open(t, t.TempDir(), Options{MaxBytes: 1})
	// MaxBytes 1 forces every insert to evict everything older.
	r := testResult(t, "Dir1B", 17)
	k1 := strings.Repeat("01", 32)
	k2 := strings.Repeat("02", 32)
	if err := s.StoreResult(k1, r, r.Fingerprint()); err != nil {
		t.Fatal(err)
	}
	if err := s.StoreResult(k2, r, r.Fingerprint()); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a 1-byte bound: %+v", st)
	}
	if s.HasResult(k1) {
		t.Fatalf("least recently used entry survived eviction")
	}
}

// TestLRUOrderRespectsAccess stores three entries under a bound that fits
// two, touches the oldest, and asserts the untouched middle one is the
// eviction victim.
func TestLRUOrderRespectsAccess(t *testing.T) {
	r := testResult(t, "Dir1B", 19)
	// Size one entry to calibrate the bound.
	probe := open(t, t.TempDir(), Options{})
	if err := probe.StoreResult(strings.Repeat("ff", 32), r, r.Fingerprint()); err != nil {
		t.Fatal(err)
	}
	size := probe.Stats().Bytes
	s := open(t, t.TempDir(), Options{MaxBytes: 2*size + size/2})
	k := func(i int) string { return strings.Repeat(fmt.Sprintf("%02x", 16+i), 32) }
	for i := 0; i < 2; i++ {
		if err := s.StoreResult(k(i), r, r.Fingerprint()); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, _ := s.LoadResult(k(0)); !ok { // touch k0: k1 becomes LRU
		t.Fatal("touch load missed")
	}
	if err := s.StoreResult(k(2), r, r.Fingerprint()); err != nil {
		t.Fatal(err)
	}
	if s.HasResult(k(1)) {
		t.Fatalf("LRU victim k1 survived")
	}
	if !s.HasResult(k(0)) || !s.HasResult(k(2)) {
		t.Fatalf("recently used entries evicted")
	}
}

// TestConcurrentStoreLoad hammers one store from many goroutines,
// including same-key write races — the content-addressed atomic-rename
// contract under -race.
func TestConcurrentStoreLoad(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	r := testResult(t, "Dir1B", 23)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				key := strings.Repeat(fmt.Sprintf("%02x", 32+i%5), 32)
				if err := s.StoreResult(key, r, r.Fingerprint()); err != nil {
					t.Errorf("goroutine %d: store: %v", g, err)
					return
				}
				if got, ok, err := s.LoadResult(key); err != nil || (ok && got.Fingerprint() != r.Fingerprint()) {
					t.Errorf("goroutine %d: load: ok=%v err=%v", g, ok, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.Entries != 5 {
		t.Fatalf("want 5 distinct entries, got %+v", st)
	}
}

// TestStatsOnSharedRegistry asserts the store publishes its counters on
// the caller's registry under the documented names.
func TestStatsOnSharedRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	s := open(t, t.TempDir(), Options{Metrics: reg})
	r := testResult(t, "Dir1B", 29)
	key := strings.Repeat("09", 32)
	if err := s.StoreResult(key, r, r.Fingerprint()); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.LoadResult(key); !ok {
		t.Fatal("load missed")
	}
	snap := reg.Snapshot()
	if snap.Counters["store.writes"] != 1 || snap.Counters["store.hits"] != 1 {
		t.Fatalf("registry counters: %+v", snap.Counters)
	}
	if snap.Gauges["store.entries"] != 1 || snap.Gauges["store.bytes"] <= 0 {
		t.Fatalf("registry gauges: %+v", snap.Gauges)
	}
}
