package directory

import (
	"testing"

	"dirsim/internal/core"
	"dirsim/internal/event"
	"dirsim/internal/sim"
	"dirsim/internal/trace"
	"dirsim/internal/workload"
)

func cvRef(cpu uint8, kind trace.Kind, block int) trace.Ref {
	return trace.Ref{Addr: uint64(block) * trace.BlockBytes, CPU: cpu, Proc: uint16(cpu), Kind: kind}
}

func TestCoarseVectorBasics(t *testing.T) {
	p := NewCoarseVector(8)
	p.SetChecker(core.NewChecker())
	results := []event.Result{
		p.Access(cvRef(0, trace.Read, 1)),  // first
		p.Access(cvRef(1, trace.Read, 1)),  // clean share: code {0,1} -> wild digit 0
		p.Access(cvRef(0, trace.Read, 1)),  // hit
		p.Access(cvRef(1, trace.Write, 1)), // invalidate named set minus writer
		p.Access(cvRef(0, trace.Read, 1)),  // dirty miss: flush from 1
		p.Access(cvRef(0, trace.Instr, 9)), // instruction: ignored
	}
	want := []event.Type{
		event.RdMissFirst, event.RdMissClean, event.RdHit,
		event.WrHitClean, event.RdMissDirty, event.Instr,
	}
	for i, res := range results {
		if res.Type != want[i] {
			t.Errorf("ref %d: %v, want %v", i, res.Type, want[i])
		}
	}
	// {0,1} encodes exactly; the write invalidates one cache, none wasted.
	if results[3].Inval != 1 {
		t.Errorf("write sent %d invals, want 1", results[3].Inval)
	}
	if p.Wasted != 0 {
		t.Errorf("wasted %d invals on an exact code", p.Wasted)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCoarseVectorZeroState checks the invariants accept never-referenced
// entries: an untouched engine, and the 511 zero slots beside one block.
func TestCoarseVectorZeroState(t *testing.T) {
	p := NewCoarseVector(8)
	if err := p.CheckInvariants(); err != nil {
		t.Errorf("untouched: %v", err)
	}
	p.Access(cvRef(3, trace.Write, 5))
	if err := p.CheckInvariants(); err != nil {
		t.Errorf("one block touched: %v", err)
	}
}

func TestCoarseVectorOvershoot(t *testing.T) {
	p := NewCoarseVector(8)
	p.SetChecker(core.NewChecker())
	// Holders {0, 3}: 000 and 011 wildcard two digits -> superset {0,1,2,3}.
	p.Access(cvRef(0, trace.Read, 2))
	p.Access(cvRef(3, trace.Read, 2))
	res := p.Access(cvRef(0, trace.Write, 2))
	if res.Inval != 3 {
		t.Errorf("superset invalidation sent %d messages, want 3 (caches 1,2,3)", res.Inval)
	}
	if p.Wasted != 2 || p.Useful != 1 {
		t.Errorf("wasted=%d useful=%d, want 2/1", p.Wasted, p.Useful)
	}
	if got := p.Overshoot(); got < 0.6 || got > 0.7 {
		t.Errorf("overshoot = %v, want 2/3", got)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCoarseVectorOvershootEmpty(t *testing.T) {
	if got := NewCoarseVector(4).Overshoot(); got != 0 {
		t.Errorf("overshoot with no invals = %v", got)
	}
}

func TestCoarseVectorMatchesFullMapEvents(t *testing.T) {
	// Event classification must equal DirNNB's: the code changes only
	// invalidation delivery, never the state evolution.
	tr := workload.THOR(8, 60_000)
	cv, err := sim.Simulate(NewCoarseVector(8), tr.Iterator(), sim.Options{Check: true})
	if err != nil {
		t.Fatal(err)
	}
	full, err := sim.SimulateTrace("DirNNB", tr, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cv.Counts != full.Counts {
		t.Error("coarse-vector event counts diverge from the full map")
	}
	// Superset delivery can only send more messages, never fewer.
	if cv.SeqInvals < full.SeqInvals {
		t.Errorf("coarse sent fewer invals (%d) than exact (%d)", cv.SeqInvals, full.SeqInvals)
	}
}

func TestCoarseVectorCoherentOnContention(t *testing.T) {
	tr := workload.SpinContention(8, 300, 6)
	if _, err := sim.Simulate(NewCoarseVector(8), tr.Iterator(), sim.Options{Check: true}); err != nil {
		t.Fatal(err)
	}
}

func TestCoarseVectorPanicsOnBadInput(t *testing.T) {
	p := NewCoarseVector(4)
	for _, fn := range []func(){
		func() { p.Access(cvRef(7, trace.Read, 0)) },
		func() { NewCoarseVector(0) },
		func() { NewCoarseVector(core.MaxCPUs + 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
