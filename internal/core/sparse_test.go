package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dirsim/internal/core"
	"dirsim/internal/event"
	"dirsim/internal/trace"
	"dirsim/internal/workload"
)

// loopSchemes are the names the shared engine loop must serve: every
// fixed scheme name (DirCV among them) and the parameterized pointer
// schemes.
func loopSchemes() []string { return append(core.Schemes(), "Dir1B", "Dir2B", "Dir2NB") }

// newLoopEngine builds a loop scheme by name.
func newLoopEngine(scheme string, ncpu int) core.Protocol {
	p, err := core.NewByName(scheme, ncpu)
	if err != nil {
		panic(err)
	}
	return p
}

// sparseEngines names every engine the sparse entry point must serve: the
// loop schemes, the Dir1NB specification and the finite-cache engine (the
// last two have only Access, so they take the fallback's per-reference
// path).
func sparseEngines() map[string]func(ncpu int) core.Protocol {
	engines := map[string]func(int) core.Protocol{
		"Dir1NBSpec": core.NewDir1NBSpec,
		"FiniteDirNNB": func(ncpu int) core.Protocol {
			// Small enough that the standard workloads evict.
			p, err := core.NewByName("FiniteDirNNB:512b2w", ncpu)
			if err != nil {
				panic(err)
			}
			return p
		},
	}
	for _, scheme := range loopSchemes() {
		engines[scheme] = func(ncpu int) core.Protocol { return newLoopEngine(scheme, ncpu) }
	}
	return engines
}

// sparseStreams are the three standard workloads plus a seeded random
// stream whose blocks sit 2^40 apart, each alone on its page.
func sparseStreams(cpus, n int) map[string][]trace.Ref {
	streams := map[string][]trace.Ref{}
	for _, cfg := range workload.StandardConfigs(cpus, n) {
		streams[cfg.Name] = workload.MustGenerate(cfg).Refs
	}
	rng := rand.New(rand.NewSource(13))
	sparse := make([]trace.Ref, n)
	for i := range sparse {
		cpu := uint8(rng.Intn(cpus))
		kind := trace.Read
		switch x := rng.Intn(10); {
		case x == 0:
			kind = trace.Instr
		case x <= 3:
			kind = trace.Write
		}
		b := trace.Block(uint64(rng.Intn(96)) << 40)
		sparse[i] = trace.Ref{Addr: b.Addr(), CPU: cpu, Proc: uint16(cpu), Kind: kind}
	}
	streams["sparse"] = sparse
	return streams
}

// observed reports whether the simulator reads a result's Holders: the
// Figure 1 types and the dirty misses. A counted type carries no Holders,
// so it must be none of these.
func observed(t event.Type) bool {
	switch t {
	case event.WrHitClean, event.WrMissClean, event.WrMissDirty, event.RdMissDirty:
		return true
	}
	return false
}

// splitSparse checks the sparse stream's contract against the ordered
// Access results want: every one is either the next of the sparse results
// got, or equal, Holders aside, to its type's declared outcome in plain
// and counted there; and every sparse result and every count is used up.
// Taking a result as sparse whenever it equals the next sparse result
// loses nothing: where it also equals the declared outcome, the two
// readings differ only by swapping equal values. It returns how many
// counted results had an outcome that is not free.
func splitSparse(want, got []event.Result, plain *core.Plain) (priced int64, err error) {
	var counted [event.NumTypes]int64
	j := 0
	for i, res := range want {
		if j < len(got) && got[j] == res {
			j++
			continue
		}
		out := plain.Outcome[res.Type]
		bare := res
		bare.Holders = 0
		if bare != out || observed(res.Type) {
			return 0, fmt.Errorf("Access result %d is %+v: not the next sparse result (%d of %d), and not the declared outcome %+v of its type",
				i, res, j, len(got), out)
		}
		counted[res.Type]++
		if !out.Quiet() {
			priced++
		}
	}
	if j != len(got) {
		return 0, fmt.Errorf("%d sparse results left over after the %d Access results", len(got)-j, len(want))
	}
	if counted != plain.N {
		return 0, fmt.Errorf("plain counts %v, the Access results left out of the sparse stream count %v", plain.N, counted)
	}
	return priced, nil
}

// batchOnly is a core.Protocol wrapper that knows AccessBatch and nothing
// newer — the shape of the benchmark's traced protocol — and logs the
// length of every batch it is handed. Embedding the interface hides
// whatever sparse loop the wrapped engine has.
type batchOnly struct {
	core.Protocol
	batches []int
}

func (p *batchOnly) AccessBatch(refs []trace.Ref, out []event.Result) []event.Result {
	p.batches = append(p.batches, len(refs))
	return core.AccessBatch(p.Protocol, refs, out)
}

// TestSparseMatchesAccess holds AccessSparse to per-reference Access for
// every engine, with and without a value-coherence checker, over the
// standard workloads and a sparse random stream, at batch sizes from one
// reference to more than the stream: every Access result is either the
// next sparse result in order or its type's declared outcome, counted in
// plain (splitSparse), and the engine is left in the state Access leaves
// it in. Every engine is run bare — the two with only Access take the
// fallback's per-reference path — and again behind an AccessBatch-only
// wrapper, which must be handed each batch in exactly one AccessBatch
// call. Counted outcomes that are not free (WTI's write-throughs,
// Dragon's repeat updates) must turn up.
func TestSparseMatchesAccess(t *testing.T) {
	const cpus, n = 4, 12_000
	var accessOnly []string
	for name := range fallbackEngines() {
		accessOnly = append(accessOnly, name)
	}
	slices.Sort(accessOnly)
	if want := []string{"Dir1NBSpec", "FiniteDirNNB"}; !slices.Equal(accessOnly, want) {
		t.Errorf("the engines with only Access are %v, want %v: the fallback's per-reference path must be covered, and by nothing else", accessOnly, want)
	}
	pricedBy := map[string]int64{}
	for stream, refs := range sparseStreams(cpus, n) {
		for name, build := range sparseEngines() {
			for _, checked := range []bool{false, true} {
				// The oracle: one Access per reference.
				oracle := build(cpus)
				if checked && !core.Attach(oracle, core.NewChecker()) {
					t.Fatalf("%s does not accept a checker", name)
				}
				want := make([]event.Result, len(refs))
				for i, r := range refs {
					want[i] = oracle.Access(r)
				}
				tail := refs[:2000]
				var wantTail []event.Result
				for _, r := range tail {
					wantTail = append(wantTail, oracle.Access(r))
				}

				for _, batch := range []int{1, 7, 4096, -4096} {
					p := build(cpus)
					if checked {
						core.Attach(p, core.NewChecker())
					}
					var wrapper *batchOnly
					if batch < 0 { // behind the AccessBatch-only wrapper
						batch = -batch
						wrapper = &batchOnly{Protocol: p}
						p = wrapper
					}
					label := fmt.Sprintf("%s over %s (checked=%v, batch=%d, wrapped=%v)",
						name, stream, checked, batch, wrapper != nil)
					var plain core.Plain
					var got []event.Result
					var handed []int
					for rest := refs; len(rest) > 0; {
						k := min(len(rest), batch)
						got = core.AccessSparse(p, rest[:k], &plain, got)
						handed = append(handed, k)
						rest = rest[k:]
					}
					if wrapper != nil && !slices.Equal(wrapper.batches, handed) {
						t.Errorf("%s: the wrapper saw AccessBatch calls of %v references, AccessSparse was handed %v",
							label, wrapper.batches, handed)
					}
					if len(got) == 0 || len(got) == len(refs) {
						t.Fatalf("%s: %d of %d results are sparse; the stream tests nothing", label, len(got), len(refs))
					}
					priced, err := splitSparse(want, got, &plain)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					pricedBy[name] += priced
					if err := p.CheckInvariants(); err != nil {
						t.Errorf("%s: %v", label, err)
					}
					// Same state afterwards: a dense batch classifies the
					// same way on both engines.
					if gotTail := core.AccessBatch(p, tail, nil); !slices.Equal(gotTail, wantTail) {
						t.Errorf("%s: a following dense batch differs from the Access engine's", label)
					}
				}
				if err := oracle.CheckInvariants(); err != nil {
					t.Errorf("%s over %s (checked=%v): %v", name, stream, checked, err)
				}
			}
		}
	}
	for _, name := range []string{"wti", "dragon"} {
		if pricedBy[name] == 0 {
			t.Errorf("%s counted no reference whose outcome has a price; the priced counts are not tested", name)
		}
	}
}

// recovered runs f and returns what it panicked with, nil if it did not.
func recovered(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// TestSparsePanicsLikeAccess feeds every engine references no trace may
// contain — a CPU the engine does not have, a Kind that does not exist —
// behind two good ones, and requires the sparse path to panic exactly
// where and as Access does.
func TestSparsePanicsLikeAccess(t *testing.T) {
	good := []trace.Ref{
		{Addr: 64, CPU: 1, Kind: trace.Write},
		{Addr: 64, CPU: 1, Kind: trace.Read},
	}
	bad := map[string]trace.Ref{
		"instr from cpu 9": {Addr: 64, CPU: 9, Kind: trace.Instr},
		"read from cpu 9":  {Addr: 64, CPU: 9, Kind: trace.Read},
		"write from cpu 9": {Addr: 64, CPU: 9, Kind: trace.Write},
		"read from cpu 64": {Addr: 64, CPU: 64, Kind: trace.Read},
		"kind 7":           {Addr: 64, CPU: 1, Kind: 7},
		"kind 7 on a miss": {Addr: 4096, CPU: 2, Kind: 7},
	}
	panicked := 0
	for name, build := range sparseEngines() {
		for what, r := range bad {
			p, q := build(4), build(4)
			for _, g := range good {
				q.Access(g)
			}
			want := recovered(func() { q.Access(r) })
			var plain core.Plain
			got := recovered(func() { core.AccessSparse(p, append(slices.Clone(good), r), &plain, nil) })
			if got != want {
				t.Errorf("%s, %s: sparse path panicked with %v, Access with %v", name, what, got, want)
			}
			if want != nil {
				panicked++
			}
		}
	}
	if panicked == 0 {
		t.Error("no engine rejected any bad reference; the test compares nothing")
	}
}

// TestSparseAllocs asserts every loop scheme is a Sparser whose
// steady-state sparse loop allocates nothing: once a trace's pages exist
// and the results buffer has grown to the batch's few misses, classifying
// it again touches only the table, the counts and that buffer.
func TestSparseAllocs(t *testing.T) {
	refs := workload.POPS(4, 20_000).Refs
	for _, scheme := range loopSchemes() {
		p := newLoopEngine(scheme, 4)
		if _, ok := p.(core.Sparser); !ok {
			t.Errorf("%s has no native AccessSparse", scheme)
			continue
		}
		var plain core.Plain
		out := core.AccessSparse(p, refs, &plain, nil)
		if len(out) == 0 || len(out) > len(refs)/2 {
			t.Errorf("%s: %d of %d references in the sparse stream", scheme, len(out), len(refs))
		}
		if allocs := testing.AllocsPerRun(5, func() {
			out = core.AccessSparse(p, refs, &plain, out[:0])
		}); allocs != 0 {
			t.Errorf("%s: steady-state sparse batch allocates %.0f times", scheme, allocs)
		}
	}
}

// fallbackEngines are the engines with only Access: AccessSparse serves
// them from its fallback, one Access per reference and no dense buffer.
func fallbackEngines() map[string]func(ncpu int) core.Protocol {
	engines := sparseEngines()
	for name, build := range engines {
		p := build(4)
		_, sparser := p.(core.Sparser)
		_, batcher := p.(core.Batcher)
		if sparser || batcher {
			delete(engines, name)
		}
	}
	return engines
}

// TestSparseFallbackAllocs asserts that a batch through the fallback
// allocates nothing once the engine's tables and the results buffer have
// grown: neither the fallback's per-reference path nor the Access of any
// engine it serves allocates per reference.
func TestSparseFallbackAllocs(t *testing.T) {
	refs := workload.POPS(4, 20_000).Refs
	for name, build := range fallbackEngines() {
		p := build(4)
		var plain core.Plain
		out := core.AccessSparse(p, refs, &plain, nil)
		if len(out) == 0 || len(out) > len(refs)/2 {
			t.Errorf("%s: %d of %d references in the sparse stream", name, len(out), len(refs))
		}
		out = slices.Grow(out[:0], len(refs))
		if allocs := testing.AllocsPerRun(5, func() {
			out = core.AccessSparse(p, refs, &plain, out[:0])
		}); allocs != 0 {
			t.Errorf("%s: steady-state fallback batch allocates %.0f times", name, allocs)
		}
	}
}

// BenchmarkSparse reports AccessSparse's cost per reference for every
// loop scheme (BenchmarkSparse/<name>) over 400 k POPS references at 4
// CPUs, in the simulator's batches of 4096, a fresh engine per pass.
func BenchmarkSparse(b *testing.B) {
	refs := workload.POPS(4, 400_000).Refs
	seen := map[string]bool{}
	for _, scheme := range loopSchemes() {
		if name := newLoopEngine(scheme, 4).Name(); !seen[name] { // illinois is MESI
			seen[name] = true
			b.Run(name, func(b *testing.B) {
				benchSparse(b, refs, func() core.Protocol { return newLoopEngine(scheme, 4) })
			})
		}
	}
}

// BenchmarkSparseFallback is BenchmarkSparse for the engines with only
// Access.
func BenchmarkSparseFallback(b *testing.B) {
	refs := workload.POPS(4, 400_000).Refs
	for name, build := range fallbackEngines() {
		b.Run(name, func(b *testing.B) { benchSparse(b, refs, func() core.Protocol { return build(4) }) })
	}
}

func benchSparse(b *testing.B, refs []trace.Ref, build func() core.Protocol) {
	var plain core.Plain
	var out []event.Result
	for i := 0; i < b.N; i++ {
		p := build()
		for rest := refs; len(rest) > 0; {
			k := min(len(rest), 4096)
			out = core.AccessSparse(p, rest[:k], &plain, out[:0])
			rest = rest[k:]
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(refs)), "ns/ref")
}
