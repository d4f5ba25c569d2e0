package bus

import (
	"strings"
	"testing"

	"dirsim/internal/event"
)

func TestTable2Costs(t *testing.T) {
	// The per-operation cycle costs of the paper's Table 2.
	p := Pipelined()
	if p.MemAccess != 5 || p.CacheAccess != 5 || p.WriteBackFill != 4 ||
		p.WriteWord != 1 || p.DirCheck != 1 || p.Inval != 1 || p.BroadcastInval != 1 {
		t.Errorf("pipelined costs wrong: %+v", p)
	}
	n := NonPipelined()
	if n.MemAccess != 7 || n.CacheAccess != 6 || n.WriteBackFill != 5 ||
		n.WriteWord != 2 || n.DirCheck != 3 || n.Inval != 1 {
		t.Errorf("non-pipelined costs wrong: %+v", n)
	}
}

func costOf(t *testing.T, m Model, res event.Result) float64 {
	t.Helper()
	b, _ := m.Cost(res)
	return b.Total()
}

func TestCostPerEvent(t *testing.T) {
	p := Pipelined()
	cases := []struct {
		name string
		res  event.Result
		want float64
	}{
		{"instr", event.Result{Type: event.Instr}, 0},
		{"read hit", event.Result{Type: event.RdHit}, 0},
		{"first ref excluded", event.Result{Type: event.RdMissFirst}, 0},
		{"first write excluded", event.Result{Type: event.WrMissFirst, Broadcast: true}, 0},
		{"plain fill", event.Result{Type: event.RdMissMem}, 5},
		{"clean fill", event.Result{Type: event.RdMissClean}, 5},
		{"clean fill + steal (Dir1NB)", event.Result{Type: event.RdMissClean, Inval: 1}, 6},
		{"dirty fill via wb", event.Result{Type: event.RdMissDirty, WriteBack: true, CacheSupply: true}, 4},
		{"dirty fill via wb + flush req", event.Result{Type: event.RdMissDirty, WriteBack: true, CacheSupply: true, Broadcast: true}, 5},
		{"dirty fill cache supply (Dragon)", event.Result{Type: event.RdMissDirty, CacheSupply: true}, 5},
		{"write hit clean Dir0B", event.Result{Type: event.WrHitClean, DirCheck: true, Broadcast: true}, 2},
		{"write hit clean sole holder", event.Result{Type: event.WrHitClean, DirCheck: true}, 1},
		{"write hit 3 directed invals", event.Result{Type: event.WrHitClean, DirCheck: true, Inval: 3}, 4},
		{"dragon update", event.Result{Type: event.WrHitShared, Update: true, Broadcast: true}, 1},
		{"wti write through", event.Result{Type: event.WrHitOwn, Update: true}, 1},
		{"wti write miss", event.Result{Type: event.WrMissDirty, Update: true, Broadcast: true}, 6},
		{"forced inval", event.Result{Type: event.RdMissClean, ForcedInval: 1}, 6},
	}
	for _, c := range cases {
		if got := costOf(t, p, c.res); got != c.want {
			t.Errorf("%s: cost %v, want %v", c.name, got, c.want)
		}
	}
}

func TestCostNonPipelined(t *testing.T) {
	n := NonPipelined()
	cases := []struct {
		name string
		res  event.Result
		want float64
	}{
		{"plain fill", event.Result{Type: event.RdMissMem}, 7},
		{"dirty fill via wb + flush", event.Result{Type: event.RdMissDirty, WriteBack: true, CacheSupply: true, Inval: 1}, 6},
		{"cache supply", event.Result{Type: event.RdMissDirty, CacheSupply: true}, 6},
		{"dir check", event.Result{Type: event.WrHitClean, DirCheck: true}, 3},
		{"write through", event.Result{Type: event.WrHitOwn, Update: true}, 2},
	}
	for _, c := range cases {
		if got := costOf(t, n, c.res); got != c.want {
			t.Errorf("%s: cost %v, want %v", c.name, got, c.want)
		}
	}
}

func TestUpdateNotDoubleChargedForBroadcast(t *testing.T) {
	p := Pipelined()
	res := event.Result{Type: event.WrHitShared, Update: true, Broadcast: true}
	b, _ := p.Cost(res)
	if b[CatInval] != 0 {
		t.Error("update protocols must not pay invalidation cycles for their broadcast")
	}
	if b[CatWriteWord] != 1 {
		t.Errorf("update should cost one word: %v", b)
	}
}

func TestBroadcastCostParameter(t *testing.T) {
	m := Pipelined()
	m.BroadcastInval = 8
	res := event.Result{Type: event.WrHitClean, DirCheck: true, Broadcast: true}
	if got := costOf(t, m, res); got != 9 {
		t.Errorf("broadcast-8 cost = %v, want 9", got)
	}
}

func TestBerkeleyModel(t *testing.T) {
	m := Pipelined()
	m.DirCheckFree = true
	res := event.Result{Type: event.WrHitClean, DirCheck: true, Broadcast: true}
	if got := costOf(t, m, res); got != 1 {
		t.Errorf("Berkeley dir check should be free: %v", got)
	}
}

func TestQAppliesPerTransaction(t *testing.T) {
	m := Pipelined()
	m.Q = 2
	// A bus-using reference pays Q once.
	b, txn := m.Cost(event.Result{Type: event.RdMissMem})
	if !txn || b[CatQ] != 2 || b.Total() != 7 {
		t.Errorf("Q accounting wrong: %v txn=%v", b, txn)
	}
	// A free reference pays nothing.
	b, txn = m.Cost(event.Result{Type: event.RdHit})
	if txn || b.Total() != 0 {
		t.Errorf("hit should not pay Q: %v txn=%v", b, txn)
	}
}

func TestTransactionFlag(t *testing.T) {
	m := Pipelined()
	if _, txn := m.Cost(event.Result{Type: event.RdMissMem}); !txn {
		t.Error("miss should be a transaction")
	}
	if _, txn := m.Cost(event.Result{Type: event.RdHit}); txn {
		t.Error("hit should not be a transaction")
	}
	if _, txn := m.Cost(event.Result{Type: event.RdMissFirst}); txn {
		t.Error("excluded first-ref miss should not count as a transaction")
	}
	if _, txn := m.Cost(event.Result{Type: event.WrHitShared, Update: true}); !txn {
		t.Error("an update is a transaction")
	}
}

func TestBreakdownOps(t *testing.T) {
	a := Breakdown{1, 2, 0, 0, 0, 0}
	b := Breakdown{0, 1, 3, 0, 0, 0}
	sum := a.Add(b)
	if sum.Total() != 7 || sum[CatWriteBack] != 3 {
		t.Errorf("Add wrong: %v", sum)
	}
	if s := a.Scale(2); s.Total() != 6 {
		t.Errorf("Scale wrong: %v", s)
	}
}

func TestCategoryString(t *testing.T) {
	want := map[Category]string{
		CatInval:     "inval",
		CatWriteBack: "wb",
		CatMemAccess: "mem access",
		CatDirAccess: "dir access",
		CatWriteWord: "wt or wup",
		CatQ:         "fixed (q)",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), s)
		}
	}
	if got := Category(99).String(); !strings.Contains(got, "99") {
		t.Errorf("out of range: %q", got)
	}
}

// TestPaperArithmetic feeds the paper's published Table 4 event
// frequencies through the cost model and checks that the paper's Table 5
// cumulative numbers come out — validating the cost model independently
// of the trace substitution.
func TestPaperArithmetic(t *testing.T) {
	type mix []struct {
		res  event.Result
		freq float64 // percent of references
	}
	const refs = 1_000_000
	run := func(m mix) float64 {
		tally := NewTally(Pipelined())
		for _, entry := range m {
			n := int(entry.freq / 100 * refs)
			for i := 0; i < n; i++ {
				addOne(tally, entry.res)
			}
		}
		for tally.Refs < refs {
			addOne(tally, event.Result{Type: event.RdHit})
		}
		return tally.PerRef()
	}

	dragon := run(mix{
		{event.Result{Type: event.RdMissClean}, 0.14},
		{event.Result{Type: event.RdMissDirty, CacheSupply: true}, 0.17},
		{event.Result{Type: event.WrHitShared, Update: true, Broadcast: true}, 1.74},
		{event.Result{Type: event.WrMissClean, Update: true}, 0.01},
		{event.Result{Type: event.WrMissDirty, CacheSupply: true, Update: true}, 0.01},
	})
	if dragon < 0.030 || dragon > 0.037 {
		t.Errorf("Dragon from paper frequencies = %.4f, paper 0.0336", dragon)
	}

	dir1nb := run(mix{
		{event.Result{Type: event.RdMissClean, Inval: 1}, 4.78},
		{event.Result{Type: event.RdMissDirty, Inval: 1, WriteBack: true, CacheSupply: true}, 0.40},
		{event.Result{Type: event.WrMissClean, Inval: 1}, 0.08},
		{event.Result{Type: event.WrMissDirty, Inval: 1, WriteBack: true, CacheSupply: true}, 0.09},
	})
	if dir1nb < 0.29 || dir1nb > 0.34 {
		t.Errorf("Dir1NB from paper frequencies = %.4f, paper 0.3210", dir1nb)
	}

	dir0b := run(mix{
		{event.Result{Type: event.RdMissClean}, 0.23},
		{event.Result{Type: event.RdMissDirty, WriteBack: true, CacheSupply: true, Broadcast: true}, 0.40},
		{event.Result{Type: event.WrHitClean, DirCheck: true, Broadcast: true}, 0.41},
		{event.Result{Type: event.WrMissClean, Broadcast: true}, 0.02},
		{event.Result{Type: event.WrMissDirty, WriteBack: true, CacheSupply: true, Broadcast: true}, 0.09},
	})
	if dir0b < 0.040 || dir0b > 0.055 {
		t.Errorf("Dir0B from paper frequencies = %.4f, paper 0.0491", dir0b)
	}
}
