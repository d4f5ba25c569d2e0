package trace

import (
	"slices"
	"testing"
)

func refSeq(n int) []Ref {
	refs := make([]Ref, n)
	for i := range refs {
		refs[i] = Ref{
			Addr:  uint64(i) * 16,
			Proc:  uint16(i % 7),
			CPU:   uint8(i % 4),
			Kind:  Kind(i % 3),
			Flags: Flag(i % 5),
		}
	}
	return refs
}

// TestChecksumSensitivity flips every field of one reference in turn; each
// perturbation must change the checksum, and undoing it must restore it.
func TestChecksumSensitivity(t *testing.T) {
	refs := refSeq(100)
	base := Checksum(refs)
	if Checksum(refs) != base {
		t.Fatal("checksum not deterministic")
	}
	mutate := []struct {
		name string
		do   func(r *Ref)
		undo func(r *Ref)
	}{
		{"addr", func(r *Ref) { r.Addr ^= 1 << 40 }, func(r *Ref) { r.Addr ^= 1 << 40 }},
		{"proc", func(r *Ref) { r.Proc++ }, func(r *Ref) { r.Proc-- }},
		{"cpu", func(r *Ref) { r.CPU++ }, func(r *Ref) { r.CPU-- }},
		{"kind", func(r *Ref) { r.Kind ^= 1 }, func(r *Ref) { r.Kind ^= 1 }},
		{"flags", func(r *Ref) { r.Flags ^= FlagSpin }, func(r *Ref) { r.Flags ^= FlagSpin }},
	}
	for _, m := range mutate {
		m.do(&refs[37])
		if Checksum(refs) == base {
			t.Errorf("checksum blind to %s mutation", m.name)
		}
		m.undo(&refs[37])
		if Checksum(refs) != base {
			t.Errorf("checksum not restored after %s round trip", m.name)
		}
	}
}

// TestChecksumOrderSensitive swaps two references: the checksum of a
// stream must depend on its order, since simulation does.
func TestChecksumOrderSensitive(t *testing.T) {
	refs := refSeq(50)
	base := Checksum(refs)
	refs[3], refs[11] = refs[11], refs[3]
	if Checksum(refs) == base {
		t.Error("checksum blind to reference reordering")
	}
}

func TestTraceFingerprint(t *testing.T) {
	a := &Trace{Name: "pops", CPUs: 4, Refs: refSeq(64)}
	base := a.Fingerprint()
	if a.Fingerprint() != base {
		t.Fatal("fingerprint not deterministic")
	}
	clone := func() *Trace { return &Trace{Name: a.Name, CPUs: a.CPUs, Refs: slices.Clone(a.Refs)} }
	b := clone()
	if b.Fingerprint() != base {
		t.Error("copy's fingerprint differs")
	}
	b.Name = "thor"
	if b.Fingerprint() == base {
		t.Error("fingerprint blind to trace name")
	}
	c := clone()
	c.CPUs = 8
	if c.Fingerprint() == base {
		t.Error("fingerprint blind to CPU count")
	}
	d := clone()
	d.Refs[0].Addr ^= 1
	if d.Fingerprint() == base {
		t.Error("fingerprint blind to reference content")
	}
}
