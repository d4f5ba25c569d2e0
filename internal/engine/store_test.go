package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dirsim/internal/faults"
	"dirsim/internal/store"
	"dirsim/internal/workload"
)

// The durable store must satisfy the engine's second-tier contract.
var _ Tier = (*store.Store)(nil)

func openTier(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestTierWarmStartServesFromStore is the heart of the two-tier design: a
// second engine over the same store directory — a fresh process, as far
// as caching is concerned — must serve the whole batch from disk, bit
// identical, without simulating or generating anything.
func TestTierWarmStartServesFromStore(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	specs := []SimSpec{
		{Trace: workload.POPSConfig(4, 6_000), Scheme: "Dir0B"},
		{Trace: workload.POPSConfig(4, 6_000), Scheme: "Dir2B"},
	}

	cold := New(Options{Verify: true, Store: openTier(t, dir)})
	want, err := cold.Results(ctx, Sequential{}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats().SimsRun != 2 {
		t.Fatalf("cold engine SimsRun = %d, want 2", cold.Stats().SimsRun)
	}

	for _, exec := range executors() {
		t.Run(exec.Name(), func(t *testing.T) {
			warm := New(Options{Verify: true, Store: openTier(t, dir)})
			got, err := warm.Results(ctx, exec, specs)
			if err != nil {
				t.Fatal(err)
			}
			st := warm.Stats()
			if st.SimsRun != 0 || st.TracesGenerated != 0 {
				t.Errorf("warm engine simulated: SimsRun=%d TracesGenerated=%d, want 0/0",
					st.SimsRun, st.TracesGenerated)
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("spec %d: store-served result differs from cold run", i)
				}
				if got[i].Fingerprint() != want[i].Fingerprint() {
					t.Errorf("spec %d: fingerprint mismatch", i)
				}
			}
		})
	}
}

// TestTierStoresResultsOnly: the durable tier holds results, never
// traces. A cold Results over a store leaves one .dsr file per spec and
// no trc/ directory, and a warm engine asked for a scheme the store has
// not seen regenerates every workload, bit-identical to an engine with no
// store at all.
func TestTierStoresResultsOnly(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	cfgs := workload.StandardConfigs(4, 6_000)
	specsFor := func(scheme string) []SimSpec {
		specs := make([]SimSpec, len(cfgs))
		for i, cfg := range cfgs {
			specs[i] = SimSpec{Trace: cfg, Scheme: scheme}
		}
		return specs
	}

	cold := New(Options{Verify: true, Store: openTier(t, dir)})
	if _, err := cold.Results(ctx, Sequential{}, specsFor("Dir0B")); err != nil {
		t.Fatal(err)
	}
	results := 0
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && d.Name() == "trc":
			t.Errorf("%s: the store holds a trace namespace", path)
		case !d.IsDir() && !strings.HasSuffix(path, ".dsr"):
			t.Errorf("%s: not a result entry", path)
		case !d.IsDir():
			results++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if results != len(cfgs) {
		t.Errorf("%d result files, want %d", results, len(cfgs))
	}

	want, err := New(Options{}).Results(ctx, Sequential{}, specsFor("Dir1B"))
	if err != nil {
		t.Fatal(err)
	}
	warm := New(Options{Verify: true, Store: openTier(t, dir)})
	got, err := warm.Results(ctx, Sequential{}, specsFor("Dir1B"))
	if err != nil {
		t.Fatal(err)
	}
	if st := warm.Stats(); st.SimsRun != int64(len(cfgs)) || st.TracesGenerated != int64(len(cfgs)) {
		t.Errorf("SimsRun = %d, TracesGenerated = %d, want %d each (a new scheme regenerates its traces)",
			st.SimsRun, st.TracesGenerated, len(cfgs))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) || got[i].Fingerprint() != want[i].Fingerprint() {
			t.Errorf("%s: result over a warm store differs from a storeless engine's", cfgs[i].Name)
		}
	}
}

// TestTierPoisonedStampRejected reuses the fault injector's poisoned-stamp
// machinery against the durable tier: an engine whose stores are all
// poisoned persists corrupt stamps, and a clean engine sharing the
// directory must reject every load, recompute over a regenerated trace,
// and still return results identical to a never-cached run.
func TestTierPoisonedStampRejected(t *testing.T) {
	ctx := context.Background()
	spec := SimSpec{Trace: workload.POPSConfig(4, 6_000), Scheme: "Dir0B"}

	clean := New(Options{})
	want, err := clean.Results(ctx, Sequential{}, []SimSpec{spec})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	poisoned := New(Options{
		Store:  openTier(t, dir),
		Faults: faults.New(faults.Config{Seed: 1, Poison: 1}),
	})
	if _, err := poisoned.Results(ctx, Sequential{}, []SimSpec{spec}); err != nil {
		t.Fatal(err)
	}

	tier := openTier(t, dir)
	e := New(Options{Verify: true, Store: tier})
	got, err := e.Results(ctx, Sequential{}, []SimSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0], want[0]) {
		t.Error("result after poisoned-store rejection differs from clean run")
	}
	if st := e.Stats(); st.CacheRejected < 1 || st.SimsRun != 1 {
		t.Errorf("CacheRejected = %d (want >= 1), SimsRun = %d (want 1)",
			st.CacheRejected, st.SimsRun)
	}
	if rej := tier.Stats().Rejected; rej < 1 {
		t.Errorf("store Rejected = %d, want >= 1", rej)
	}
}

// TestTierCorruptFileRecomputed flips bytes in the stored result file on
// disk — bit rot, not a poisoned stamp — and asserts the next engine over
// the directory rejects the entry, bumps cache.rejected, evicts the file,
// and recomputes the correct result.
func TestTierCorruptFileRecomputed(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	spec := SimSpec{Trace: workload.POPSConfig(4, 6_000), Scheme: "Dir0B"}

	cold := New(Options{Verify: true, Store: openTier(t, dir)})
	want, err := cold.Results(ctx, Sequential{}, []SimSpec{spec})
	if err != nil {
		t.Fatal(err)
	}

	payload, err := want[0].AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	var corrupted int
	err = filepath.WalkDir(filepath.Join(dir, "res"), func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if !strings.HasSuffix(path, ".dsr") || !bytes.HasSuffix(data, payload) {
			t.Fatalf("%s: not a .dsr entry ending in the result's binary form", path)
		}
		// Flip a bit of Counts.Total, which follows the scheme and trace
		// names (one length byte each) and the event counts: the payload
		// still decodes, and only the fingerprint can tell.
		r := want[0]
		i := len(data) - len(payload) + 1 + len(r.Scheme) + 1 + len(r.Trace) + 8*len(r.Counts.N)
		data[i] ^= 1
		corrupted++
		return os.WriteFile(path, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if corrupted == 0 {
		t.Fatal("no stored result files found to corrupt")
	}

	e := New(Options{Verify: true, Store: openTier(t, dir)})
	got, err := e.Results(ctx, Sequential{}, []SimSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0], want[0]) {
		t.Error("recomputed result differs from the original")
	}
	if st := e.Stats(); st.CacheRejected < 1 || st.SimsRun != 1 {
		t.Errorf("CacheRejected = %d (want >= 1), SimsRun = %d (want 1)",
			st.CacheRejected, st.SimsRun)
	}

	// The corrupt file was evicted, so a further engine recomputes cleanly
	// from a regenerated trace and repopulates the result.
	again := New(Options{Verify: true, Store: openTier(t, dir)})
	got2, err := again.Results(ctx, Sequential{}, []SimSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2[0], want[0]) {
		t.Error("post-eviction result differs from the original")
	}
	if st := again.Stats(); st.CacheRejected != 0 {
		t.Errorf("post-eviction CacheRejected = %d, want 0 (bad entry was evicted)", st.CacheRejected)
	}
}

// TestTierDropsSchema2Result plants a result entry as schema 2 wrote it —
// a JSON envelope in res/<kk>/<key>.json — and opens the store over it.
// Nothing can serve such a file any more, so Open deletes it without
// counting a hit or a rejection, and the engine recomputes the result
// bit-identically.
func TestTierDropsSchema2Result(t *testing.T) {
	ctx := context.Background()
	spec := SimSpec{Trace: workload.POPSConfig(4, 6_000), Scheme: "Dir0B"}
	want, err := New(Options{}).Results(ctx, Sequential{}, []SimSpec{spec})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	key := spec.Key().hex()
	path := filepath.Join(dir, "res", key[:2], key+".json")
	v2, err := json.Marshal(map[string]any{
		"schema":      2,
		"key":         key,
		"fingerprint": fmt.Sprintf("%#x", want[0].Fingerprint()),
		"written":     "2026-10-01T00:00:00Z",
		"result":      want[0],
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, v2, 0o644); err != nil {
		t.Fatal(err)
	}

	tier := openTier(t, dir)
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("schema-2 entry survived Open: %v", err)
	}
	if tier.HasResult(key) {
		t.Fatal("HasResult reports a schema-2 entry")
	}
	e := New(Options{Verify: true, Store: tier})
	got, err := e.Results(ctx, Sequential{}, []SimSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0], want[0]) {
		t.Error("result recomputed over a schema-2 store differs from a clean run")
	}
	if st := e.Stats(); st.SimsRun != 1 || st.CacheRejected != 0 {
		t.Errorf("SimsRun = %d (want 1), CacheRejected = %d (want 0)", st.SimsRun, st.CacheRejected)
	}
	if st := tier.Stats(); st.Rejected != 0 || st.Hits != 0 {
		t.Errorf("store Rejected = %d, Hits = %d, want 0/0", st.Rejected, st.Hits)
	}
}
