package sim

import (
	"bytes"
	"os"
	"reflect"
	"runtime"
	"testing"

	"dirsim/internal/network"
	"dirsim/internal/workload"
)

// codecSchemes are the schemes the paper's tables compare.
var codecSchemes = []string{"Dir1NB", "WTI", "Dir0B", "DirNNB", "Dir1B", "Dragon"}

// codecOpts prices on a bus and a mesh, so every result carries both kinds
// of tally.
var codecOpts = Options{Topologies: []network.Topology{network.Bus(4), network.Mesh(2, 2)}}

func encode(t testing.TB, r *Result) []byte {
	t.Helper()
	b, err := r.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// roundTrip decodes r's binary form and checks that nothing was dropped:
// the decoded result equals r (an empty histogram may come back nil), has
// its fingerprint, and encodes to the same bytes.
func roundTrip(t *testing.T, what string, r *Result) []byte {
	t.Helper()
	b := encode(t, r)
	got, err := DecodeResult(b)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want := *r
	for _, h := range []*[]int64{&want.InvalClean.Buckets, &want.HoldersAtInval.Buckets} {
		if len(*h) == 0 {
			*h = nil
		}
	}
	if !reflect.DeepEqual(got, &want) {
		t.Errorf("%s: decoded result differs from the original", what)
	}
	if got.Fingerprint() != r.Fingerprint() {
		t.Errorf("%s: fingerprint %#x after decoding, %#x before", what, got.Fingerprint(), r.Fingerprint())
	}
	if again := encode(t, got); !bytes.Equal(again, b) {
		t.Errorf("%s: re-encoding the decoded result changed its bytes", what)
	}
	return b
}

// TestResultCodecRoundTrip holds the binary form to the fields Fingerprint
// sees: every paper scheme's result, and a finite cache's with its miss
// causes, survives encode and decode intact, every mutation of
// resultMutations changes the bytes, every strict prefix of an encoding
// is refused or (the one that drops a finite result's miss causes)
// decodes to another fingerprint, and a trailing byte is refused.
func TestResultCodecRoundTrip(t *testing.T) {
	tr := workload.POPS(4, 20_000)
	for _, scheme := range append(codecSchemes, "FiniteDirNNB:512b2w") {
		r, err := SimulateTrace(scheme, tr, codecOpts)
		if err != nil {
			t.Fatal(err)
		}
		b := roundTrip(t, scheme, r)
		for n := range b {
			got, err := DecodeResult(b[:n])
			if err == nil && n == len(b)-24 && r.ColdMisses|r.CoherenceMisses|r.CapacityMisses != 0 {
				// Cut exactly before the miss causes, a finite cache's
				// encoding is an infinite one's: what it decodes to must
				// not pass for r (the store compares fingerprints).
				if got.Fingerprint() == r.Fingerprint() {
					t.Fatalf("%s: dropping the miss causes kept the fingerprint", scheme)
				}
				continue
			}
			if err == nil {
				t.Fatalf("%s: a %d-byte prefix of a %d-byte encoding decoded", scheme, n, len(b))
			}
		}
		if _, err := DecodeResult(append(b, 0)); err == nil {
			t.Errorf("%s: a trailing byte was accepted", scheme)
		}
	}

	base, err := SimulateTrace("Dir0B", tr, codecOpts)
	if err != nil {
		t.Fatal(err)
	}
	baseBytes := encode(t, base)
	// An infinite cache writes no miss causes, so three zero words after
	// its encoding are not an encoding of anything.
	if _, err := DecodeResult(append(baseBytes[:len(baseBytes):len(baseBytes)], make([]byte, 24)...)); err == nil {
		t.Error("miss causes written as zero were accepted")
	}
	for _, m := range resultMutations() {
		mut, err := SimulateTrace("Dir0B", tr, codecOpts)
		if err != nil {
			t.Fatal(err)
		}
		m.do(mut)
		if b := roundTrip(t, m.name, mut); bytes.Equal(b, baseBytes) {
			t.Errorf("binary form blind to %s mutation", m.name)
		}
	}
}

// The golden encoding pins the binary form of one result. The durable
// store's envelope carries the only version number the form has, so a
// change to the form must bump store.SchemaVersion and be recorded here
// anew (-update-golden) under the new version's file name.
const (
	goldenResultFile        = "testdata/result_v3.bin"
	goldenResultFingerprint = 0xde2ec7c6dde04371
)

// goldenResult is what goldenResultFile holds: a small run with
// invalidations, broadcasts, both bus models and both topologies.
func goldenResult(t *testing.T) *Result {
	r, err := SimulateTrace("Dir0B", workload.POPS(4, 3_000), codecOpts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestResultCodecGolden decodes the committed encoding, checks its
// fingerprint against the recorded one, and re-encodes it byte for byte.
func TestResultCodecGolden(t *testing.T) {
	if *updateGolden {
		if err := os.WriteFile(goldenResultFile, encode(t, goldenResult(t)), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: fingerprint %#x", goldenResultFile, goldenResult(t).Fingerprint())
		return
	}
	want, err := os.ReadFile(goldenResultFile)
	if err != nil {
		t.Fatal(err)
	}
	r, err := DecodeResult(want)
	if err != nil {
		t.Fatalf("the committed encoding no longer decodes: %v", err)
	}
	if got := r.Fingerprint(); got != goldenResultFingerprint {
		t.Fatalf("the committed encoding decodes to fingerprint %#x, recorded %#x", got, uint64(goldenResultFingerprint))
	}
	if got := encode(t, r); !bytes.Equal(got, want) {
		t.Fatal("the binary form changed without a new golden file (see goldenResultFile)")
	}
}

// heapAllocBytes reads the cumulative bytes the heap has allocated.
// ReadMemStats flushes every P's allocation cache first, so the count is
// exact at the call, where runtime/metrics lags by whole spans.
func heapAllocBytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// FuzzDecodeResult feeds DecodeResult arbitrary bytes. It must never
// panic; what it allocates is bounded by the input's size, so no length
// prefix can make it reserve memory the input does not back; and an input
// it accepts must be exactly the encoding of what it decoded.
func FuzzDecodeResult(f *testing.F) {
	r, err := SimulateTrace("Dir1NB", workload.POPS(4, 2_000), codecOpts)
	if err != nil {
		f.Fatal(err)
	}
	b := encode(f, r)
	f.Add(b)
	f.Add(b[:len(b)/2])
	finite, err := SimulateTrace("FiniteDirNNB:512b2w", workload.POPS(4, 2_000), codecOpts)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encode(f, finite))
	f.Add(append(b[:len(b):len(b)], 0))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		before := heapAllocBytes()
		r, err := DecodeResult(data)
		if grew := heapAllocBytes() - before; grew > 64<<10+16*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		if again := encode(t, r); !bytes.Equal(again, data) {
			t.Fatalf("accepted %d bytes that re-encode as %d different ones", len(data), len(again))
		}
	})
}
