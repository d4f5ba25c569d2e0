package trace

import "testing"

func mkTrace(cpus int, refs ...Ref) *Trace {
	t := New("test", cpus)
	for _, r := range refs {
		t.Append(r)
	}
	return t
}

func TestValidateOK(t *testing.T) {
	tr := mkTrace(2,
		Ref{Addr: 0x10, CPU: 0, Kind: Read},
		Ref{Addr: 0x20, CPU: 1, Kind: Write},
		Ref{Addr: 0x30, CPU: 1, Kind: Instr},
	)
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		tr   *Trace
	}{
		{"zero cpus", &Trace{Name: "x", CPUs: 0}},
		{"too many cpus", &Trace{Name: "x", CPUs: MaxCPUs + 1}},
		{"bad kind", mkTrace(1, Ref{Kind: Kind(9)})},
		{"cpu out of range", mkTrace(1, Ref{CPU: 1, Kind: Read})},
	}
	for _, c := range cases {
		if err := c.tr.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestIteratorReplaysInOrder(t *testing.T) {
	tr := mkTrace(2,
		Ref{Addr: 0x10, CPU: 0, Kind: Read},
		Ref{Addr: 0x20, CPU: 1, Kind: Write},
	)
	it := tr.Iterator()
	if it.CPUCount() != 2 {
		t.Fatalf("CPUCount = %d, want 2", it.CPUCount())
	}
	got := drainBatch(it, 1)
	if len(got) != 2 || got[0].Addr != 0x10 || got[1].Addr != 0x20 {
		t.Fatalf("iterator replay mismatch: %v", got)
	}
	// Exhausted iterators keep returning 0.
	if n := it.NextBatch(make([]Ref, 4)); n != 0 {
		t.Errorf("exhausted iterator returned %d references", n)
	}
}

func TestIteratorIndependence(t *testing.T) {
	tr := mkTrace(1, Ref{Addr: 1, Kind: Read}, Ref{Addr: 2, Kind: Read})
	a, b := tr.Iterator(), tr.Iterator()
	ra, rb := make([]Ref, 1), make([]Ref, 1)
	a.NextBatch(ra)
	b.NextBatch(rb)
	if ra[0] != rb[0] {
		t.Error("fresh iterators should start at the same position")
	}
	a.NextBatch(ra)
	if a.NextBatch(ra) != 0 {
		t.Error("iterator a should be exhausted")
	}
	if b.NextBatch(rb) != 1 {
		t.Error("iterator b should still have a reference")
	}
}
