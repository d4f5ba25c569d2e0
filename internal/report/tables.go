package report

import (
	"slices"

	"dirsim/internal/bus"
	"dirsim/internal/event"
	"dirsim/internal/trace"
)

// runTable3 reproduces Table 3: per-trace reference counts and the
// user/system split, extended with the sharing measures the generators
// are tuned against.
func runTable3(c *Context) (*Section, error) {
	s := &Section{ID: "table3", Title: "Trace characteristics"}
	traces, err := c.Traces()
	if err != nil {
		return nil, err
	}
	tbl := s.table("trace", "refs", "instr", "data-rd", "data-wrt", "user", "sys", "spin-rd", "shared-blk")
	for _, t := range traces {
		st := trace.ComputeStats(t)
		share := func(n int) Cell { return num("%.0f (%.1f%%)", float64(n), st.Pct(n)) }
		tbl.row(st.Name, count(st.Refs), share(st.Instr), share(st.Reads), share(st.Writes),
			count(st.User), count(st.System),
			num("%.1f%% of reads", 100*float64(st.SpinReads)/float64(max(st.Reads, 1))),
			num("%.0f of %.0f", float64(st.SharedBlk), float64(st.DataBlocks)))
	}
	p := PaperTable3
	s.note("\npaper: POPS %dk refs (%dk instr, %dk rd, %dk wrt), THOR %dk,\n"+
		"PERO %dk; roughly 10%% system activity; one third of POPS/THOR reads\nare lock-test spins.\n",
		p["POPS"].Refs, p["POPS"].Instr, p["POPS"].Reads, p["POPS"].Writes, p["THOR"].Refs, p["PERO"].Refs)
	return s, nil
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
func runTable4(c *Context) (*Section, error) {
	s := &Section{ID: "table4", Title: "Event frequencies, % of all references (measured | paper)"}
	rs, err := c.mergedEach(PaperSchemes...)
	if err != nil {
		return nil, err
	}
	tbl := s.table("event", PaperSchemes...)
	for _, row := range table4Rows {
		var cells []Cell
		for i, scheme := range PaperSchemes {
			cell := pct(row.value(&rs[i].Counts))
			if p, ok := PaperTable4[scheme][row.label]; ok {
				cell.Vals, cell.Style = append(cell.Vals, p), VsPaper
			}
			cells = append(cells, cell)
		}
		tbl.row(row.label, cells...)
	}
	s.note("\nnote: rm/wm-blk-mem (miss, block uncached elsewhere) are rows this\n" +
		"simulator separates; the paper folds them into the clean cases.\n" +
		"WTI and Dir0B share a state-change model, so their columns match —\n" +
		"the property the paper calls out in Section 5.\n")
	return s, nil
}

// runTable5 reproduces Table 5: the per-operation breakdown of pipelined
// bus cycles per reference for each scheme.
func runTable5(c *Context) (*Section, error) {
	s := &Section{ID: "table5", Title: "Breakdown of bus cycles per reference (pipelined bus)"}
	tbl := s.table("access type", PaperSchemes...)
	rs, err := c.mergedEach(PaperSchemes...)
	if err != nil {
		return nil, err
	}
	breakdowns := make([]bus.Breakdown, len(rs))
	for i, r := range rs {
		breakdowns[i] = r.Tally("pipelined").PerRefBreakdown()
	}
	for cat := bus.Category(0); cat < bus.NumCategories; cat++ {
		var cells []Cell
		any := false
		for _, br := range breakdowns {
			any = any || br[cat] != 0
			cells = append(cells, cyc(br[cat]))
		}
		if any {
			tbl.row(cat.String(), cells...)
		}
	}
	var cells []Cell
	for i, scheme := range PaperSchemes {
		cell := cyc(breakdowns[i].Total())
		if p, ok := PaperCyclesPipelined[scheme]; ok {
			cell = num("%.4f (paper %.4f)", breakdowns[i].Total(), p)
		}
		cells = append(cells, cell)
	}
	tbl.row("cumulative", cells...)
	s.note("\npaper Dir0B non-overlapped directory access: %.4f cycles/ref;\n"+
		"measured: %.4f. Directory bandwidth is a small fraction of the total,\n"+
		"the paper's argument that the directory is not a bottleneck.\n",
		PaperDir0BDirAccess, breakdowns[slices.Index(PaperSchemes, "Dir0B")][bus.CatDirAccess])
	return s, nil
}
