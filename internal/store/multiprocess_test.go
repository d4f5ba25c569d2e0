package store

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"testing"

	"dirsim/internal/sim"
)

// Multi-process sharing test: several OS processes race Put/Get/evict on
// one store directory. The store's contract under contention is that a
// reader sees either a miss or a complete, fingerprint-valid entry —
// never torn bytes — because writes land via fsync + rename and loads
// revalidate content fingerprints. The test re-execs its own binary as
// helper processes (the standard Go pattern for multi-process tests),
// each churning the same keyset with a byte bound small enough to force
// continuous LRU eviction, so loads race writers, evictors, and other
// processes' renames the whole time.

const (
	mpHelperEnv = "DIRSIM_STORE_MP_HELPER"
	mpDirEnv    = "DIRSIM_STORE_MP_DIR"
	mpSeedEnv   = "DIRSIM_STORE_MP_SEED"
	mpMaxEnv    = "DIRSIM_STORE_MP_MAXBYTES"
	mpKeys      = 4
	mpIters     = 150
)

// mpResults builds the canonical keyset: every process (parent and
// helpers) recomputes the same deterministic simulations, so any load
// can be checked for torn reads by deep comparison without shipping
// expected values between processes.
func mpResults(t *testing.T) map[string]*canonical {
	t.Helper()
	out := make(map[string]*canonical, mpKeys)
	for i := 0; i < mpKeys; i++ {
		r := testResult(t, "Dir1NB", uint64(100+i))
		out[fmt.Sprintf("mpkey%02d", i)] = &canonical{res: r, fp: r.Fingerprint()}
	}
	return out
}

type canonical struct {
	res *sim.Result
	fp  uint64
}

// churn is the shared workload: store and load the keyset over and over,
// in a per-process rotation so processes collide on different keys at
// different times, asserting every hit is bit-identical to the canonical
// value.
func churn(t *testing.T, s *Store, seed int, keys map[string]*canonical) {
	t.Helper()
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	// Deterministic per-process rotation; no shared clock, no randomness.
	for i := 0; i < mpIters; i++ {
		k := names[(i+seed)%len(names)]
		c := keys[k]
		if i%2 == 0 {
			if err := s.StoreResult(k, c.res, c.fp); err != nil {
				t.Fatalf("iter %d: StoreResult(%s): %v", i, k, err)
			}
		}
		got, ok, err := s.LoadResult(k)
		if err != nil {
			t.Fatalf("iter %d: LoadResult(%s): %v", i, k, err)
		}
		if ok && !reflect.DeepEqual(got, c.res) {
			t.Fatalf("iter %d: torn read on %s: loaded value differs from canonical", i, k)
		}
	}
}

// TestStoreMultiProcessHelper is the re-exec target; it only runs inside
// a helper process launched by TestStoreMultiProcessSharing.
func TestStoreMultiProcessHelper(t *testing.T) {
	if os.Getenv(mpHelperEnv) == "" {
		t.Skip("helper: run via TestStoreMultiProcessSharing")
	}
	var maxBytes int64
	fmt.Sscanf(os.Getenv(mpMaxEnv), "%d", &maxBytes)
	var seed int
	fmt.Sscanf(os.Getenv(mpSeedEnv), "%d", &seed)
	s := open(t, os.Getenv(mpDirEnv), Options{MaxBytes: maxBytes})
	churn(t, s, seed, mpResults(t))
}

// TestStoreMultiProcessSharing races two helper processes plus this one
// on a single store directory sized to evict constantly, then checks
// integrity is still enforced afterwards: a torn (truncated) entry and a
// flipped byte are both rejected by revalidation, evicted, and reported
// as corrupt — never served.
func TestStoreMultiProcessSharing(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	keys := mpResults(t)
	dir := t.TempDir()

	// Size the bound off the real payloads: roughly half the keyset
	// fits, so every churn cycle evicts.
	sizer := open(t, t.TempDir(), Options{})
	var total int64
	for k, c := range keys {
		if err := sizer.StoreResult(k, c.res, c.fp); err != nil {
			t.Fatal(err)
		}
	}
	total = sizer.Stats().Bytes
	maxBytes := total/2 + 1

	procs := make([]*exec.Cmd, 0, 2)
	logs := make([]*bytes.Buffer, 0, 2)
	for i := 0; i < 2; i++ {
		cmd := exec.Command(os.Args[0], "-test.run=TestStoreMultiProcessHelper$", "-test.count=1")
		cmd.Env = append(os.Environ(),
			mpHelperEnv+"=1",
			mpDirEnv+"="+dir,
			fmt.Sprintf("%s=%d", mpSeedEnv, i+1),
			fmt.Sprintf("%s=%d", mpMaxEnv, maxBytes),
		)
		buf := &bytes.Buffer{}
		cmd.Stdout, cmd.Stderr = buf, buf
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		procs = append(procs, cmd)
		logs = append(logs, buf)
	}

	// The parent is the third racing process.
	s := open(t, dir, Options{MaxBytes: maxBytes})
	churn(t, s, 0, keys)

	for i, cmd := range procs {
		if err := cmd.Wait(); err != nil {
			t.Fatalf("helper %d failed: %v\n%s", i, err, logs[i].String())
		}
	}

	// Integrity after the dust settles: make sure one entry is present,
	// then damage it on disk both ways a real crash or scribbler could.
	var key string
	var c *canonical
	for key, c = range keys {
		break
	}
	if err := s.StoreResult(key, c.res, c.fp); err != nil {
		t.Fatal(err)
	}
	path := s.pathFor("r:" + key)

	// Torn write: a half-length file must read as corrupt, not as data.
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.LoadResult(key); ok || err == nil {
		t.Errorf("truncated entry served: ok=%v err=%v", ok, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("truncated entry not evicted from disk")
	}

	// Flipped byte: the entry must be refused whether the flip breaks
	// decoding or only the fingerprint.
	if err := s.StoreResult(key, c.res, c.fp); err != nil {
		t.Fatal(err)
	}
	full, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), full...)
	// Flip inside the payload, well past the header.
	flipped[len(flipped)/2] ^= 0x01
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.LoadResult(key); ok {
		t.Errorf("flipped-byte entry served: err=%v", err)
	}
}
