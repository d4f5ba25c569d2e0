package report

import (
	"fmt"
	"strings"

	"dirsim/internal/bus"
	"dirsim/internal/event"
	"dirsim/internal/trace"
)

// runTable3 reproduces Table 3: per-trace reference counts and the
// user/system split, extended with the sharing measures the generators
// are tuned against.
func runTable3(c *Context) (string, error) {
	var b strings.Builder
	b.WriteString(section("table3", "Trace characteristics"))
	traces, err := c.Traces()
	if err != nil {
		return "", err
	}
	tbl := newTable("trace", "refs", "instr", "data-rd", "data-wrt", "user", "sys", "spin-rd", "shared-blk")
	for _, t := range traces {
		s := trace.ComputeStats(t)
		tbl.row(s.Name,
			fmt.Sprintf("%d", s.Refs),
			fmt.Sprintf("%d (%.1f%%)", s.Instr, s.Pct(s.Instr)),
			fmt.Sprintf("%d (%.1f%%)", s.Reads, s.Pct(s.Reads)),
			fmt.Sprintf("%d (%.1f%%)", s.Writes, s.Pct(s.Writes)),
			fmt.Sprintf("%d", s.User),
			fmt.Sprintf("%d", s.System),
			fmt.Sprintf("%.1f%% of reads", 100*float64(s.SpinReads)/float64(max(s.Reads, 1))),
			fmt.Sprintf("%d of %d", s.SharedBlk, s.DataBlocks),
		)
	}
	b.WriteString(tbl.String())
	b.WriteString("\npaper: POPS 3142k refs (1624k instr, 1257k rd, 261k wrt), THOR 3222k,\n" +
		"PERO 3508k; roughly 10% system activity; one third of POPS/THOR reads\nare lock-test spins.\n")
	return b.String(), nil
}

// table4Rows defines the paper's Table 4 row structure as functions over a
// measured event-frequency table.
var table4Rows = []struct {
	label string
	value func(*event.Counts) float64
}{
	{"instr", func(c *event.Counts) float64 { return c.Pct(event.Instr) }},
	{"read", (*event.Counts).Reads},
	{"rd-hit", func(c *event.Counts) float64 { return c.Pct(event.RdHit) }},
	{"rd-miss(rm)", (*event.Counts).ReadMisses},
	{"rm-blk-cln", func(c *event.Counts) float64 { return c.Pct(event.RdMissClean) }},
	{"rm-blk-drty", func(c *event.Counts) float64 { return c.Pct(event.RdMissDirty) }},
	{"rm-blk-mem", func(c *event.Counts) float64 { return c.Pct(event.RdMissMem) }},
	{"rm-first-ref", func(c *event.Counts) float64 { return c.Pct(event.RdMissFirst) }},
	{"write", (*event.Counts).Writes},
	{"wrt-hit(wh)", func(c *event.Counts) float64 {
		return c.PctSum(event.WrHitOwn, event.WrHitClean, event.WrHitShared, event.WrHitLocal)
	}},
	{"wh-blk-cln", func(c *event.Counts) float64 { return c.Pct(event.WrHitClean) }},
	{"wh-blk-drty", func(c *event.Counts) float64 { return c.Pct(event.WrHitOwn) }},
	{"wh-distrib", func(c *event.Counts) float64 { return c.Pct(event.WrHitShared) }},
	{"wh-local", func(c *event.Counts) float64 { return c.Pct(event.WrHitLocal) }},
	{"wrt-miss(wm)", (*event.Counts).WriteMisses},
	{"wm-blk-cln", func(c *event.Counts) float64 { return c.Pct(event.WrMissClean) }},
	{"wm-blk-drty", func(c *event.Counts) float64 { return c.Pct(event.WrMissDirty) }},
	{"wm-blk-mem", func(c *event.Counts) float64 { return c.Pct(event.WrMissMem) }},
	{"wm-first-ref", func(c *event.Counts) float64 { return c.Pct(event.WrMissFirst) }},
}

// runTable4 reproduces Table 4: measured event frequencies for the four
// schemes, with the published value beside each cell where the paper
// reports one.
func runTable4(c *Context) (string, error) {
	var b strings.Builder
	b.WriteString(section("table4", "Event frequencies, % of all references (measured | paper)"))
	counts := make(map[string]*event.Counts)
	for _, scheme := range PaperSchemes {
		r, err := c.Merged(scheme)
		if err != nil {
			return "", err
		}
		cc := r.Counts
		counts[scheme] = &cc
	}
	tbl := newTable("event", PaperSchemes...)
	for _, row := range table4Rows {
		cells := []string{row.label}
		for _, scheme := range PaperSchemes {
			m := row.value(counts[scheme])
			cell := pct(m)
			if p, ok := PaperTable4[scheme][row.label]; ok {
				cell = fmt.Sprintf("%s | %.2f", pct(m), p)
			}
			cells = append(cells, cell)
		}
		tbl.row(cells...)
	}
	b.WriteString(tbl.String())
	b.WriteString("\nnote: rm/wm-blk-mem (miss, block uncached elsewhere) are rows this\n" +
		"simulator separates; the paper folds them into the clean cases.\n" +
		"WTI and Dir0B share a state-change model, so their columns match —\n" +
		"the property the paper calls out in Section 5.\n")
	return b.String(), nil
}

// runTable5 reproduces Table 5: the per-operation breakdown of pipelined
// bus cycles per reference for each scheme.
func runTable5(c *Context) (string, error) {
	var b strings.Builder
	b.WriteString(section("table5", "Breakdown of bus cycles per reference (pipelined bus)"))
	tbl := newTable("access type", PaperSchemes...)
	breakdowns := make(map[string]bus.Breakdown)
	for _, scheme := range PaperSchemes {
		r, err := c.Merged(scheme)
		if err != nil {
			return "", err
		}
		breakdowns[scheme] = r.Tally("pipelined").PerRefBreakdown()
	}
	for cat := bus.Category(0); cat < bus.NumCategories; cat++ {
		cells := []string{cat.String()}
		any := false
		for _, scheme := range PaperSchemes {
			v := breakdowns[scheme][cat]
			if v != 0 {
				any = true
			}
			cells = append(cells, cyc(v))
		}
		if any {
			tbl.row(cells...)
		}
	}
	cells := []string{"cumulative"}
	for _, scheme := range PaperSchemes {
		total := breakdowns[scheme].Total()
		p, ok := PaperCyclesPipelined[scheme]
		cells = append(cells, withPaper(total, p, ok))
	}
	tbl.row(cells...)
	b.WriteString(tbl.String())
	b.WriteString(fmt.Sprintf("\npaper Dir0B non-overlapped directory access: %.4f cycles/ref;\n"+
		"measured: %s. Directory bandwidth is a small fraction of the total,\n"+
		"the paper's argument that the directory is not a bottleneck.\n",
		PaperDir0BDirAccess, cyc(breakdowns["Dir0B"][bus.CatDirAccess])))
	return b.String(), nil
}
