package store

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fuzzKey is the key every FuzzLoadTrace and FuzzLoadResult input is
// stored under; the committed seeds in testdata/fuzz name it (or, in
// wrong_key, another key of the same length).
var fuzzKey = strings.Repeat("5e", 32)

// entryHeader reads an entry's header as the package comment states it,
// independently of readHeader: the stamped fingerprint and the key the
// entry names. ok is false when the header does not start with magic, is
// not this schema's, or does not fit in data.
func entryHeader(data []byte, magic string) (stamp uint64, key string, ok bool) {
	if len(data) < 13 || string(data[:4]) != magic || data[4] != SchemaVersion {
		return 0, "", false
	}
	n, w := binary.Uvarint(data[13:])
	if w <= 0 || n > uint64(len(data)-13-w) {
		return 0, "", false
	}
	return binary.LittleEndian.Uint64(data[5:13]), string(data[13+w : 13+w+int(n)]), true
}

// fuzzLoad writes arbitrary bytes where ns's entry for fuzzKey lives and
// holds load to the store's promise: it never panics; it serves a value
// only when the header is ns's and this schema's, names the requested key
// and stamps the decoded value's fingerprint; anything else is rejected as
// corrupt, counted in store.rejected and evicted.
func fuzzLoad[T interface {
	comparable
	Fingerprint() uint64
}](f *testing.F, ns namespace, load func(*Store, string) (T, bool, error), has func(*Store, string) bool) {
	s, err := Open(f.TempDir(), Options{})
	if err != nil {
		f.Fatal(err)
	}
	path := s.pathFor(ns.prefix + fuzzKey)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rejected := s.Stats().Rejected
		v, ok, err := load(s, fuzzKey)
		if ok {
			var zero T
			stamp, key, header := entryHeader(data, ns.magic)
			switch {
			case err != nil || v == zero:
				t.Fatalf("served a load with err=%v, value=%v", err, v)
			case !header || key != fuzzKey:
				t.Fatalf("served an entry whose header names %q (header ok: %v)", key, header)
			case v.Fingerprint() != stamp:
				t.Fatalf("served a value fingerprinting %#x under stamp %#x", v.Fingerprint(), stamp)
			case s.Stats().Rejected != rejected || !has(s, fuzzKey):
				t.Fatal("a served entry was counted as rejected or evicted")
			}
			return
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("an entry on disk was refused without ErrCorrupt: %v", err)
		}
		if got := s.Stats().Rejected; got != rejected+1 {
			t.Fatalf("store.rejected went %d -> %d on one rejection", rejected, got)
		}
		if has(s, fuzzKey) {
			t.Fatal("a rejected entry was not evicted")
		}
	})
}

// FuzzLoadTrace holds LoadTrace to fuzzLoad's promise.
func FuzzLoadTrace(f *testing.F) {
	fuzzLoad(f, traces, (*Store).LoadTrace, func(s *Store, key string) bool { return s.has(traces.prefix + key) })
}

// FuzzLoadResult holds LoadResult to fuzzLoad's promise.
func FuzzLoadResult(f *testing.F) { fuzzLoad(f, results, (*Store).LoadResult, (*Store).HasResult) }
