package sim

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"dirsim/internal/core"
	"dirsim/internal/network"
	"dirsim/internal/trace"
	"dirsim/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden_fingerprints.txt from the current engines, and the golden result encoding")

const goldenFile = "testdata/golden_fingerprints.txt"

// goldenEngines names every engine the golden table pins: every fixed
// scheme name (DirCV among them), the parameterized pointer schemes, and
// a finite-cache engine small enough that the standard workloads evict.
func goldenEngines() []string {
	return append(core.Schemes(), "Dir2NB", "Dir1B", "Dir2B", "FiniteDirNNB:512b2w")
}

// sparseTrace is a seeded random stream over a footprint no dense table
// could hold: consecutive blocks are 2^40 block indices apart, so every
// block sits alone on its page whatever the page size.
func sparseTrace(seed int64, cpus, blocks, n int) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := trace.New("sparse", cpus)
	for i := 0; i < n; i++ {
		cpu := uint8(rng.Intn(cpus))
		kind := trace.Read
		switch x := rng.Intn(10); {
		case x == 0:
			kind = trace.Instr
		case x <= 3:
			kind = trace.Write
		}
		b := trace.Block(uint64(rng.Intn(blocks)) << 40)
		tr.Append(trace.Ref{Addr: b.Addr(), CPU: cpu, Proc: uint16(cpu), Kind: kind})
	}
	return tr
}

func goldenTraces(t *testing.T) []*trace.Trace {
	var traces []*trace.Trace
	for _, cpus := range []int{4, 16} {
		for _, cfg := range workload.StandardConfigs(cpus, 50_000) {
			tr, err := workload.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tr.Name = fmt.Sprintf("%s%d", tr.Name, cpus)
			traces = append(traces, tr)
		}
	}
	return append(traces, sparseTrace(13, 8, 96, 30_000))
}

// TestGoldenFingerprints pins Result.Fingerprint() — with the miss split
// and DirCV's wasted and useful invalidations, derived from DirNNB's run
// of the same trace — for every engine over the standard workloads at two
// machine sizes and over a sparse random stream. The table was recorded from the map-backed engines; a change of
// per-block storage or of the accounting loop must leave every line as it
// is. -update-golden rewrites it (only for a deliberate protocol change).
func TestGoldenFingerprints(t *testing.T) {
	var lines []string
	for _, tr := range goldenTraces(t) {
		opts := Options{Topologies: []network.Topology{network.Bus(tr.CPUs)}}
		seqInvals := make(map[string]int64)
		cvLine := -1
		for _, scheme := range goldenEngines() {
			p, err := core.NewByName(scheme, tr.CPUs)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Simulate(p, tr.Iterator(), opts)
			if err != nil {
				t.Fatalf("%s over %s: %v", scheme, tr.Name, err)
			}
			res.Trace = tr.Name
			if err := p.CheckInvariants(); err != nil {
				t.Errorf("%s over %s: %v", scheme, tr.Name, err)
			}
			line := fmt.Sprintf("%s %s %016x", scheme, tr.Name, res.Fingerprint())
			if res.ColdMisses|res.CoherenceMisses|res.CapacityMisses != 0 {
				line += fmt.Sprintf(" cold=%d coherence=%d capacity=%d",
					res.ColdMisses, res.CoherenceMisses, res.CapacityMisses)
			}
			seqInvals[scheme] = res.SeqInvals
			if scheme == "dircv" {
				cvLine = len(lines)
			}
			lines = append(lines, line)
		}
		// DirCV changes state as DirNNB does: DirNNB's messages are the
		// useful ones, and DirCV's others reach caches holding no copy.
		useful := seqInvals["dirnnb"]
		lines[cvLine] += fmt.Sprintf(" wasted=%d useful=%d", seqInvals["dircv"]-useful, useful)
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(goldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("golden table has %d entries, engines produced %d", len(wantLines), len(lines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("got  %s\nwant %s", lines[i], wantLines[i])
		}
	}
}
