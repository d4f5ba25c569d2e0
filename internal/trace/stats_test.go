package trace

import (
	"strings"
	"testing"
)

func statsInput() *Trace {
	// Two processes share block 0x100; proc 0 also has a private block.
	return mkTrace(2,
		Ref{Addr: 0x1000, CPU: 0, Proc: 0, Kind: Instr},
		Ref{Addr: 0x1000, CPU: 0, Proc: 0, Kind: Read},                                   // block 0x100, proc 0
		Ref{Addr: 0x1004, CPU: 1, Proc: 1, Kind: Read, Flags: FlagSpin},                  // block 0x100, proc 1 -> shared
		Ref{Addr: 0x2000, CPU: 0, Proc: 0, Kind: Write, Flags: FlagSystem},               // private block
		Ref{Addr: 0x1008, CPU: 1, Proc: 1, Kind: Write, Flags: FlagRelease | FlagShared}, // shared again
	)
}

func TestComputeStats(t *testing.T) {
	s := ComputeStats(statsInput())
	if s.Refs != 5 || s.Instr != 1 || s.Reads != 2 || s.Writes != 2 {
		t.Fatalf("mix wrong: %+v", s)
	}
	if s.SpinReads != 1 {
		t.Errorf("SpinReads = %d, want 1", s.SpinReads)
	}
	if s.LockWrites != 1 {
		t.Errorf("LockWrites = %d, want 1", s.LockWrites)
	}
	if s.System != 1 || s.User != 4 {
		t.Errorf("user/sys split wrong: %d/%d", s.User, s.System)
	}
	if s.DataBlocks != 2 || s.SharedBlk != 1 {
		t.Errorf("blocks: data=%d shared=%d, want 2/1", s.DataBlocks, s.SharedBlk)
	}
	// Three of the four data refs touch the shared block.
	if s.SharedRefs != 3 {
		t.Errorf("SharedRefs = %d, want 3", s.SharedRefs)
	}
	if s.InstrBlocks != 1 {
		t.Errorf("InstrBlocks = %d, want 1", s.InstrBlocks)
	}
}

func TestStatsPct(t *testing.T) {
	s := ComputeStats(statsInput())
	if got := s.Pct(s.Instr); got != 20 {
		t.Errorf("Pct = %v, want 20", got)
	}
	var empty Stats
	if empty.Pct(5) != 0 {
		t.Error("Pct on empty stats should be 0")
	}
}

func TestProcsPerSharedBlock(t *testing.T) {
	s := ComputeStats(statsInput())
	// One block touched by 1 process, one by 2.
	if s.ProcsPerSharedBlock[1] != 1 || s.ProcsPerSharedBlock[2] != 1 {
		t.Errorf("ProcsPerSharedBlock = %v", s.ProcsPerSharedBlock)
	}
}

func TestStatsString(t *testing.T) {
	out := ComputeStats(statsInput()).String()
	for _, want := range []string{"refs", "spin reads", "data blocks", "test"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}
}
