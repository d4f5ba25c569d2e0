package store

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fuzzKey is the key every FuzzLoadTrace input is stored under; the
// committed seeds in testdata/fuzz/FuzzLoadTrace name it (or, in
// wrong_key, another key of the same length).
var fuzzKey = strings.Repeat("5e", 32)

// traceHeader reads an entry's header as the format comment above
// traceMagic states it, independently of LoadTrace: the stamped
// fingerprint and the key the entry names. ok is false when the header is
// not this schema's or does not fit in data.
func traceHeader(data []byte) (stamp uint64, key string, ok bool) {
	if len(data) < 13 || string(data[:4]) != traceMagic || data[4] != SchemaVersion {
		return 0, "", false
	}
	n, w := binary.Uvarint(data[13:])
	if w <= 0 || n > uint64(len(data)-13-w) {
		return 0, "", false
	}
	return binary.LittleEndian.Uint64(data[5:13]), string(data[13+w : 13+w+int(n)]), true
}

// FuzzLoadTrace writes arbitrary bytes where a trace entry lives and holds
// LoadTrace to the store's promise: it never panics; it serves a trace
// only when the header is this schema's, names the requested key and
// stamps the decoded trace's fingerprint; anything else is rejected as
// corrupt, counted in store.rejected and evicted.
func FuzzLoadTrace(f *testing.F) {
	s, err := Open(f.TempDir(), Options{})
	if err != nil {
		f.Fatal(err)
	}
	path := s.pathFor("t:" + fuzzKey)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rejected := s.Stats().Rejected
		tr, ok, err := s.LoadTrace(fuzzKey)
		if ok {
			stamp, key, header := traceHeader(data)
			switch {
			case err != nil || tr == nil:
				t.Fatalf("served a load with err=%v, trace=%v", err, tr)
			case !header || key != fuzzKey:
				t.Fatalf("served an entry whose header names %q (header ok: %v)", key, header)
			case tr.Fingerprint() != stamp:
				t.Fatalf("served a trace fingerprinting %#x under stamp %#x", tr.Fingerprint(), stamp)
			case s.Stats().Rejected != rejected || !s.HasTrace(fuzzKey):
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
		if s.HasTrace(fuzzKey) {
			t.Fatal("a rejected entry was not evicted")
		}
	})
}
