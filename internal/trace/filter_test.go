package trace

import "testing"

func filterInput() *Trace {
	return mkTrace(4,
		Ref{Addr: 0x10, CPU: 0, Proc: 0, Kind: Instr},
		Ref{Addr: 0x20, CPU: 1, Proc: 1, Kind: Read, Flags: FlagSpin},
		Ref{Addr: 0x20, CPU: 1, Proc: 1, Kind: Read, Flags: FlagAcquire},
		Ref{Addr: 0x30, CPU: 2, Proc: 5, Kind: Write},
		Ref{Addr: 0x20, CPU: 3, Proc: 3, Kind: Read, Flags: FlagSpin | FlagShared},
	)
}

func TestWithoutSpins(t *testing.T) {
	got := drain(WithoutSpins(filterInput().Iterator()))
	if len(got) != 3 {
		t.Fatalf("got %d refs, want 3", len(got))
	}
	for _, r := range got {
		if r.Flags.Has(FlagSpin) {
			t.Errorf("spin ref survived the filter: %v", r)
		}
	}
	// The acquire read (lock access, not a spin) must survive.
	found := false
	for _, r := range got {
		if r.Flags.Has(FlagAcquire) {
			found = true
		}
	}
	if !found {
		t.Error("acquire access should not be filtered")
	}
}

// TestMapAndProcessToCPU maps every process id onto its CPU number.
func TestMapAndProcessToCPU(t *testing.T) {
	src := Map(filterInput().Iterator(), func(r Ref) Ref {
		r.Proc = uint16(r.CPU)
		return r
	})
	if src.CPUCount() != 4 {
		t.Fatalf("CPUCount = %d", src.CPUCount())
	}
	got := drain(src)
	if len(got) != 5 {
		t.Fatalf("Map yielded %d refs, want 5", len(got))
	}
	for _, r := range got {
		if r.Proc != uint16(r.CPU) {
			t.Errorf("proc %d != cpu %d after remap", r.Proc, r.CPU)
		}
	}
}

func TestLimit(t *testing.T) {
	if got := drain(Limit(filterInput().Iterator(), 2)); len(got) != 2 {
		t.Fatalf("Limit(2) yielded %d refs", len(got))
	}
	if got := drain(Limit(filterInput().Iterator(), 0)); len(got) != 0 {
		t.Fatalf("Limit(0) yielded %d refs", len(got))
	}
	if got := drain(Limit(filterInput().Iterator(), 100)); len(got) != 5 {
		t.Fatalf("Limit(100) yielded %d refs", len(got))
	}
}

func TestProcAsCPU(t *testing.T) {
	tr := mkTrace(4, Ref{Addr: 0x10, CPU: 2, Proc: 1, Kind: Read})
	src := ProcAsCPU(tr.Iterator())
	if src.CPUCount() != 4 {
		t.Errorf("CPUCount = %d", src.CPUCount())
	}
	got := drain(src)
	if got[0].CPU != 1 {
		t.Errorf("CPU = %d, want the process id 1", got[0].CPU)
	}
}

func TestFilterSourceCPUCounts(t *testing.T) {
	tr := mkTrace(3, Ref{Addr: 0x10, CPU: 0, Kind: Read})
	if got := Filtered(tr.Iterator(), func(Ref) bool { return true }).CPUCount(); got != 3 {
		t.Errorf("Filtered CPUCount = %d", got)
	}
	if got := Limit(tr.Iterator(), 1).CPUCount(); got != 3 {
		t.Errorf("Limit CPUCount = %d", got)
	}
	bs, err := WithBlockSize(tr.Iterator(), 32)
	if err != nil {
		t.Fatal(err)
	}
	if got := bs.CPUCount(); got != 3 {
		t.Errorf("WithBlockSize CPUCount = %d", got)
	}
}

func TestFilterChain(t *testing.T) {
	// Filters compose: data-only then CPU 3 leaves exactly one spin read.
	dataOnly := Filtered(filterInput().Iterator(), func(r Ref) bool { return r.Kind != Instr })
	got := drain(Filtered(dataOnly, func(r Ref) bool { return r.CPU == 3 }))
	if len(got) != 1 || !got[0].Flags.Has(FlagSpin) {
		t.Fatalf("chain result %v", got)
	}
}
