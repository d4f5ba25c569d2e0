package bus

import (
	"math"
	"strings"
	"testing"

	"dirsim/internal/event"
)

// addOne prices one result, whose own counts are its units.
func addOne(t *Tally, res event.Result) { t.AddN(res, 1, res.Units()) }

func TestTallyAccumulates(t *testing.T) {
	tl := NewTally(Pipelined())
	addOne(tl, event.Result{Type: event.RdHit})
	addOne(tl, event.Result{Type: event.RdMissMem}) // 5 cycles, 1 txn
	addOne(tl, event.Result{Type: event.WrHitShared, Update: true})
	if tl.Refs != 3 || tl.Transactions != 2 {
		t.Fatalf("refs=%d txns=%d", tl.Refs, tl.Transactions)
	}
	if got := tl.PerRef(); math.Abs(got-2) > 1e-9 {
		t.Errorf("PerRef = %v, want 2", got)
	}
	if got := tl.PerTransaction(); math.Abs(got-3) > 1e-9 {
		t.Errorf("PerTransaction = %v, want 3", got)
	}
	if got := tl.TransactionsPerRef(); math.Abs(got-2.0/3) > 1e-9 {
		t.Errorf("TransactionsPerRef = %v", got)
	}
}

func TestTallyEmpty(t *testing.T) {
	tl := NewTally(Pipelined())
	if tl.PerRef() != 0 || tl.PerTransaction() != 0 || tl.TransactionsPerRef() != 0 {
		t.Error("empty tally should report zeros")
	}
}

func TestTallyMerge(t *testing.T) {
	a := NewTally(Pipelined())
	b := NewTally(Pipelined())
	addOne(a, event.Result{Type: event.RdMissMem})
	addOne(b, event.Result{Type: event.RdMissMem})
	addOne(b, event.Result{Type: event.RdHit})
	a.Merge(b)
	if a.Refs != 3 || a.Transactions != 2 || a.Cycles.Total() != 10 {
		t.Errorf("merge wrong: %+v", a)
	}
}

func TestTallyBreakdownPerRef(t *testing.T) {
	tl := NewTally(Pipelined())
	addOne(tl, event.Result{Type: event.RdMissMem}) // mem 5
	addOne(tl, event.Result{Type: event.RdHit})
	br := tl.PerRefBreakdown()
	if br[CatMemAccess] != 2.5 {
		t.Errorf("breakdown = %v", br)
	}
	var empty Tally
	if empty.PerRefBreakdown() != (Breakdown{}) {
		t.Error("empty breakdown should be zero")
	}
}

func TestTallyString(t *testing.T) {
	tl := NewTally(Pipelined())
	addOne(tl, event.Result{Type: event.RdMissMem})
	out := tl.String()
	for _, want := range []string{"pipelined", "cycles/ref", "mem access"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
}
