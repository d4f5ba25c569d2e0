package core

import (
	"math/rand"
	"testing"

	"dirsim/internal/event"
	"dirsim/internal/trace"
)

// Shared helpers for the protocol tests.

// blockAddr returns the byte address of block n.
func blockAddr(n int) uint64 { return uint64(n) * trace.BlockBytes }

// rd, wr and in build references tersely.
func rd(cpu uint8, block int) trace.Ref {
	return trace.Ref{Addr: blockAddr(block), CPU: cpu, Proc: uint16(cpu), Kind: trace.Read}
}

func wr(cpu uint8, block int) trace.Ref {
	return trace.Ref{Addr: blockAddr(block), CPU: cpu, Proc: uint16(cpu), Kind: trace.Write}
}

func in(cpu uint8, block int) trace.Ref {
	return trace.Ref{Addr: blockAddr(block), CPU: cpu, Proc: uint16(cpu), Kind: trace.Instr}
}

// apply feeds references through a protocol, returning the per-reference
// results and failing the test on invariant violations.
func apply(t *testing.T, p Protocol, refs ...trace.Ref) []event.Result {
	t.Helper()
	out := make([]event.Result, 0, len(refs))
	for _, r := range refs {
		out = append(out, p.Access(r))
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("%s invariants: %v", p.Name(), err)
	}
	return out
}

// applyChecked is apply with a value-coherence checker attached first.
func applyChecked(t *testing.T, p Protocol, refs ...trace.Ref) []event.Result {
	t.Helper()
	if !Attach(p, NewChecker()) {
		t.Fatalf("%s does not support coherence checking", p.Name())
	}
	return apply(t, p, refs...)
}

// types extracts the event classifications.
func types(results []event.Result) []event.Type {
	out := make([]event.Type, len(results))
	for i, r := range results {
		out[i] = r.Type
	}
	return out
}

// expectTypes asserts the exact classification sequence.
func expectTypes(t *testing.T, got []event.Result, want ...event.Type) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Type != want[i] {
			t.Errorf("ref %d: classified %v, want %v", i, got[i].Type, want[i])
		}
	}
}

// randomRefs generates a random shared/private access mix over a small
// block pool so protocol state machines are exercised heavily.
func randomRefs(seed int64, cpus, blocks, n int) []trace.Ref {
	r := rand.New(rand.NewSource(seed))
	refs := make([]trace.Ref, 0, n)
	for i := 0; i < n; i++ {
		cpu := uint8(r.Intn(cpus))
		kind := trace.Read
		switch x := r.Intn(10); {
		case x == 0:
			kind = trace.Instr
		case x <= 3:
			kind = trace.Write
		}
		refs = append(refs, trace.Ref{
			Addr: blockAddr(r.Intn(blocks)),
			CPU:  cpu,
			Proc: uint16(cpu),
			Kind: kind,
		})
	}
	return refs
}

// countTypes tallies classifications.
func countTypes(results []event.Result) event.Counts {
	var c event.Counts
	for _, r := range results {
		c.Add(r.Type, 1)
	}
	return c
}
