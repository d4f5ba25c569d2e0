package trace

import (
	"slices"
	"testing"
)

func TestWithBlockSizeValidation(t *testing.T) {
	src := mkTrace(1, Ref{Addr: 0x100, Kind: Read}).Iterator()
	for _, bad := range []int{0, 8, 15, 24, 48} {
		if _, err := WithBlockSize(src, bad); err == nil {
			t.Errorf("block size %d accepted", bad)
		}
	}
}

func TestWithBlockSizeIdentity(t *testing.T) {
	tr := mkTrace(1,
		Ref{Addr: 0x100, Kind: Read},
		Ref{Addr: 0x1f0, Kind: Write},
	)
	src, err := WithBlockSize(tr.Iterator(), BlockBytes)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(src)
	for i, r := range got {
		if r.Addr != tr.Refs[i].Addr {
			t.Errorf("16-byte rescale must be the identity: %#x", r.Addr)
		}
	}
}

func TestWithBlockSizeGrouping(t *testing.T) {
	// Addresses 0x100 and 0x110 are distinct 16-byte blocks but the same
	// 32-byte block; 0x120 is a different 32-byte block.
	tr := mkTrace(1,
		Ref{Addr: 0x100, Kind: Read},
		Ref{Addr: 0x110, Kind: Read},
		Ref{Addr: 0x120, Kind: Read},
	)
	src, err := WithBlockSize(tr.Iterator(), 32)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(src)
	if got[0].Block() != got[1].Block() {
		t.Error("0x100 and 0x110 must share a 32-byte block")
	}
	if got[1].Block() == got[2].Block() {
		t.Error("0x110 and 0x120 must be in different 32-byte blocks")
	}
}

func TestWithBlockSizeLarge(t *testing.T) {
	// 128-byte blocks: eight 16-byte blocks collapse into one.
	tr := New("x", 1)
	for i := 0; i < 8; i++ {
		tr.Append(Ref{Addr: uint64(0x1000 + i*16), Kind: Read})
	}
	tr.Append(Ref{Addr: 0x1080, Kind: Read})
	src, err := WithBlockSize(tr.Iterator(), 128)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(src)
	first := got[0].Block()
	for i := 1; i < 8; i++ {
		if got[i].Block() != first {
			t.Fatalf("ref %d left the 128-byte block", i)
		}
	}
	if got[8].Block() == first {
		t.Error("0x1080 should start the next 128-byte block")
	}
}

// TestWithBlockSizeMatchesMap holds the in-place source to the definition
// it replaced — Map with addr >> log2(size/16) — reference for reference
// through NextBatch at buffer sizes that do and do not divide the trace.
func TestWithBlockSizeMatchesMap(t *testing.T) {
	tr := New("x", 2)
	for i := 0; i < 1000; i++ {
		tr.Append(Ref{Addr: uint64(i)*0x9e3779b97f4a7c15 + 5, CPU: uint8(i % 2), Proc: uint16(i % 3),
			Kind: Kind(i % 3), Flags: Flag(i % 5)})
	}
	for shift, size := range []int{16, 32, 64, 128} {
		want := drain(Map(tr.Iterator(), func(r Ref) Ref {
			r.Addr >>= shift
			return r
		}))
		blocks := func(src Source) Source {
			out, err := WithBlockSize(src, size)
			if err != nil {
				t.Fatal(err)
			}
			if out.CPUCount() != 2 {
				t.Errorf("size %d: CPUCount = %d", size, out.CPUCount())
			}
			return out
		}
		got := map[string][]Ref{
			"NextBatch(1)":    drainBatch(blocks(tr.Iterator()), 1),
			"NextBatch(7)":    drainBatch(blocks(tr.Iterator()), 7),
			"NextBatch(250)":  drainBatch(blocks(tr.Iterator()), 250),
			"NextBatch(4096)": drainBatch(blocks(tr.Iterator()), 4096),
		}
		for how, refs := range got {
			if !slices.Equal(refs, want) {
				t.Errorf("size %d through %s differs from Map(addr >> %d)", size, how, shift)
			}
		}
	}
	if got := tr.Refs[1].Addr; got != 0x9e3779b97f4a7c15+5 {
		t.Errorf("the shift reached the trace's own references: %#x", got)
	}
}
