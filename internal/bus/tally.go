package bus

import (
	"fmt"
	"strings"

	"dirsim/internal/event"
)

// Tally accumulates priced bus traffic over a simulation run: the cycles
// per reference metric, its Table 5 breakdown by operation, and the
// transaction counts behind Figure 5 and the Section 5.1 q-model.
type Tally struct {
	// Model is the bus model used for pricing.
	Model Model
	// Cycles is the accumulated breakdown across all references.
	Cycles Breakdown
	// Refs is the number of references priced (including hits,
	// instruction fetches, and other free references).
	Refs int64
	// Transactions is the number of references that used the bus.
	Transactions int64
}

// NewTally returns a tally pricing with the given model.
func NewTally(m Model) *Tally { return &Tally{Model: m} }

// AddN prices n results that Model.CostN can price together (res stands
// for them, u is their summed unit counts) and accumulates them;
// AddN(res, 1, res.Units()) prices one.
func (t *Tally) AddN(res event.Result, n int64, u event.Units) {
	b, txns := t.Model.CostN(res, n, u)
	t.Refs += n
	if txns == 0 {
		// A non-transaction's breakdown is all zeros (prices are
		// non-negative), so accumulating it would change nothing.
		return
	}
	t.Cycles = t.Cycles.Add(b)
	t.Transactions += txns
}

// Merge folds another tally (priced under the same model) into t.
func (t *Tally) Merge(o *Tally) {
	t.Cycles = t.Cycles.Add(o.Cycles)
	t.Refs += o.Refs
	t.Transactions += o.Transactions
}

// PerRef returns the paper's central metric: average bus cycles consumed
// per memory reference.
func (t *Tally) PerRef() float64 {
	if t.Refs == 0 {
		return 0
	}
	return t.Cycles.Total() / float64(t.Refs)
}

// PerRefBreakdown returns the Table 5 row values: cycles per reference in
// each operation category.
func (t *Tally) PerRefBreakdown() Breakdown {
	if t.Refs == 0 {
		return Breakdown{}
	}
	return t.Cycles.Scale(1 / float64(t.Refs))
}

// TransactionsPerRef returns bus transactions per reference — the slope of
// the Section 5.1 fixed-cost model.
func (t *Tally) TransactionsPerRef() float64 {
	if t.Refs == 0 {
		return 0
	}
	return float64(t.Transactions) / float64(t.Refs)
}

// PerTransaction returns average bus cycles per bus transaction, the
// Figure 5 metric.
func (t *Tally) PerTransaction() float64 {
	if t.Transactions == 0 {
		return 0
	}
	return t.Cycles.Total() / float64(t.Transactions)
}

// String renders the tally as a short report.
func (t *Tally) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "bus model %s: %.4f cycles/ref over %d refs (%.4f txn/ref, %.2f cycles/txn)\n",
		t.Model.Name, t.PerRef(), t.Refs, t.TransactionsPerRef(), t.PerTransaction())
	br := t.PerRefBreakdown()
	for c := Category(0); c < NumCategories; c++ {
		if br[c] == 0 {
			continue
		}
		fmt.Fprintf(&sb, "  %-11s %.4f\n", c, br[c])
	}
	return sb.String()
}
