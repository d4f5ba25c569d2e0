package report

import (
	"fmt"
	"strconv"

	"dirsim/internal/bus"
	"dirsim/internal/cache"
	"dirsim/internal/directory"
	"dirsim/internal/engine"
)

// runQSens reproduces the Section 5.1 analysis: adding q fixed cycles to
// every bus transaction. cycles/ref(q) = base + q·(txn/ref), computed from
// the same simulations as Figure 2.
func runQSens(c *Context) (*Section, error) {
	s := &Section{ID: "qsens", Title: "Cycles per reference as fixed transaction cost q grows"}
	qs := []float64{0, 1, 2, 4}
	cols := make([]string, len(qs))
	for i, q := range qs {
		cols[i] = fmt.Sprintf("q=%g", q)
	}
	tbl := s.table("scheme", append(cols, "slope (txn/ref)")...)
	type line struct{ base, slope float64 }
	lines := map[string]line{}
	rs, err := c.mergedEach(PaperSchemes...)
	if err != nil {
		return nil, err
	}
	for i, scheme := range PaperSchemes {
		t := rs[i].Tally("pipelined")
		l := line{base: t.PerRef(), slope: t.TransactionsPerRef()}
		lines[scheme] = l
		var cells []Cell
		for _, q := range qs {
			cells = append(cells, cyc(l.base+q*l.slope))
		}
		tbl.row(scheme, append(cells, num("%.4f", l.slope))...)
	}
	// premium is Dir0B's cost over Dragon's at q, in percent.
	premium := func(d0, dg line, q float64) float64 {
		return 100 * (d0.base + q*d0.slope - dg.base - q*dg.slope) / (dg.base + q*dg.slope)
	}
	d0, dg := lines["Dir0B"], lines["Dragon"]
	p0 := line{PaperCyclesPipelined["Dir0B"], PaperTxnPerRef["Dir0B"]}
	pg := line{PaperCyclesPipelined["Dragon"], PaperTxnPerRef["Dragon"]}
	s.note("\npaper model: Dragon %.4f+%.4fq, Dir0B %.4f+%.4fq; at q=1 the\n"+
		"Dir0B premium over Dragon shrinks from %.0f%% to %.0f%%.\n"+
		"measured:   Dragon %.4f+%.4fq, Dir0B %.4f+%.4fq; premium %.0f%% -> %.0f%%.\n",
		pg.base, pg.slope, p0.base, p0.slope, premium(p0, pg, 0), premium(p0, pg, 1),
		dg.base, dg.slope, d0.base, d0.slope, premium(d0, dg, 0), premium(d0, dg, 1))
	return s, nil
}

// runSpinlocks reproduces Section 5.2: rerunning Dir1NB and Dir0B with all
// lock-test reads removed from the traces.
func runSpinlocks(c *Context) (*Section, error) {
	s := &Section{ID: "spinlocks", Title: "Pipelined cycles/ref with and without lock-test spins"}
	tbl := s.table("scheme", "with spins", "without spins", "paper")
	for _, scheme := range []string{"Dir1NB", "Dir0B"} {
		rs, err := c.MergedGroups(c.specs(scheme, c.CPUs, ""),
			c.specs(scheme, c.CPUs, engine.FilterNoSpins))
		if err != nil {
			return nil, err
		}
		with, without := rs[0], rs[1]
		paperCell := num("~unchanged")
		if scheme == "Dir1NB" {
			paperCell = num("%.2f -> %.2f", PaperSpinlock.With, PaperSpinlock.Without)
		}
		tbl.row(scheme, cyc(with.PerRef("pipelined")), cyc(without.PerRef("pipelined")), paperCell)
	}
	s.note("\nlocks bounce between the spinning caches under Dir1NB, so removing\n" +
		"the test reads collapses its cost; Dir0B is essentially unaffected.\n" +
		"Software schemes that flush critical sections behave like Dir1NB.\n")
	return s, nil
}

// runDirNNB reproduces the first Section 6 result: replacing Dir0B's
// broadcast invalidations with directed sequential invalidations (full-map
// DirNNB) costs almost nothing, because writes rarely invalidate more than
// one cache.
func runDirNNB(c *Context) (*Section, error) {
	s := &Section{ID: "dirnnb", Title: "Broadcast vs sequential invalidation"}
	rs, err := c.mergedEach("Dir0B", "DirNNB")
	if err != nil {
		return nil, err
	}
	d0, dn := rs[0], rs[1]
	p0, pn := PaperCyclesPipelined["Dir0B"], PaperCyclesPipelined["DirNNB"]
	tbl := s.table("scheme", "cycles/ref (pipelined)", "paper")
	tbl.row("Dir0B (broadcast)", cyc(d0.PerRef("pipelined")), cyc(p0))
	tbl.row("DirNNB (sequential)", cyc(dn.PerRef("pipelined")), cyc(pn))
	s.note("\nsequential invalidation costs %.2f%% more cycles (paper: +%.1f%%:\n"+
		"%.4f -> %.4f). Directed messages need no bus with broadcast\n"+
		"capability, the property that lets directories scale beyond one bus.\n"+
		"DirNNB sent %.3f directed invalidations per 100 refs.\n",
		100*(dn.PerRef("pipelined")-d0.PerRef("pipelined"))/d0.PerRef("pipelined"),
		100*(pn-p0)/p0, p0, pn,
		100*float64(dn.SeqInvals)/float64(dn.Counts.Total))
	return s, nil
}

// runDir1B reproduces the Section 6 Dir1B analysis: one pointer plus a
// broadcast bit, with broadcast cost b as a parameter. The simulation runs
// once; the linear model follows from the measured broadcast frequency.
func runDir1B(c *Context) (*Section, error) {
	s := &Section{ID: "dir1b", Title: "Dir1B: cycles/ref as a function of broadcast cost b"}
	r, err := c.Merged("Dir1B")
	if err != nil {
		return nil, err
	}
	base := r.PerRef("pipelined")
	slope := float64(r.Broadcasts) / float64(r.Counts.Total)
	// base was measured at b=1, so the b-parameterized line is
	// (base - slope) + slope*b.
	b0 := base - slope
	tbl := s.table("b (cycles)", "cycles/ref", "paper model")
	for _, bc := range []float64{1, 2, 4, 8, 16} {
		tbl.row(fmt.Sprintf("%g", bc), cyc(b0+slope*bc),
			cyc(PaperDir1B.Base+PaperDir1B.Slope*bc))
	}
	s.note("\nmeasured model: %.4f + %.4f·b (paper: %.4f + %.4f·b).\n"+
		"broadcasts are needed on only %.3f%% of references, so even expensive\n"+
		"broadcasts barely move the total — the single-pointer entry covers\n"+
		"the common case.\n",
		b0, slope, PaperDir1B.Base, PaperDir1B.Slope, 100*slope)
	return s, nil
}

// runBerkeley reproduces the paper's aside: the Berkeley Ownership
// protocol estimated from Dir0B's event frequencies by zeroing the
// directory-check cost.
func runBerkeley(c *Context) (*Section, error) {
	s := &Section{ID: "berkeley", Title: "Berkeley Ownership estimate from Dir0B events"}
	rs, err := c.mergedEach("Dir0B", "Dragon")
	if err != nil {
		return nil, err
	}
	d0, dg := rs[0], rs[1]
	br := d0.Tally("pipelined").PerRefBreakdown()
	berkeley := br.Total() - br[bus.CatDirAccess]
	tbl := s.table("scheme", "cycles/ref (pipelined)")
	tbl.row("Dir0B", cyc(br.Total()))
	tbl.row("Berkeley (derived)", cyc(berkeley))
	tbl.row("Dragon", cyc(dg.PerRef("pipelined")))
	s.note("\nthe paper prints %.4f for Berkeley but describes it as between Dir0B\n"+
		"and Dragon; Dir0B minus its directory component (%.4f here) is the\n"+
		"consistent reading, and that ordering is what this run shows.\n",
		PaperBerkeley.Printed, berkeley)
	return s, nil
}

// runScaling sweeps the pointer count of the Dir_i schemes at several
// machine sizes — the study the paper outlines but could not run for lack
// of wider traces.
func runScaling(c *Context) (*Section, error) {
	s := &Section{ID: "scaling", Title: "Dir_iB and Dir_iNB across pointer counts and machine sizes"}
	schemes := []string{"Dir0B", "Dir1B", "Dir2B", "Dir4B", "Dir1NB", "Dir2NB", "Dir4NB", "DirNNB"}
	sizes := []int{4, 8, 16}
	// One batch for every machine size: the sizes' traces generate and
	// their family walks run side by side.
	var groups [][]engine.SimSpec
	for _, cpus := range sizes {
		for _, scheme := range schemes {
			groups = append(groups, c.specs(scheme, cpus, ""))
		}
	}
	all, err := c.MergedGroups(groups...)
	if err != nil {
		return nil, err
	}
	for k, cpus := range sizes {
		rs := all[k*len(schemes):]
		s.note("machine size %d CPUs:\n", cpus)
		tbl := s.table("scheme", "cycles/ref", "rd-miss %", "bcasts/1k refs", "forced-inv/1k refs", "inval<=1 %")
		for i, scheme := range schemes {
			r := rs[i]
			perK := func(n int64) Cell { return num("%.2f", 1000*float64(n)/float64(r.Counts.Total)) }
			tbl.row(scheme, cyc(r.PerRef("pipelined")), num("%.3f", r.Counts.ReadMisses()),
				perK(r.Broadcasts), perK(r.ForcedInvals), num("%.1f", r.InvalClean.PctAtMost(1)))
		}
		s.note("\n")
	}
	s.note("a couple of pointers already make broadcasts (B schemes) or forced\n" +
		"invalidations (NB schemes) rare; the miss-rate penalty of Dir_iNB\n" +
		"shrinks as i grows, the trade the paper proposes for scalability.\n")
	return s, nil
}

// runCoarse evaluates the Section 6 coarse ternary-digit code: exact
// directed invalidation (DirNNB) vs superset invalidation in 2·log n bits.
func runCoarse(c *Context) (*Section, error) {
	s := &Section{ID: "coarse", Title: "Coarse-code superset invalidation vs full map"}
	tbl := s.table("cpus", "DirNNB cycles/ref", "DirCV cycles/ref", "wasted invals", "overshoot")
	sizes := []int{4, 8, 16, 32}
	var groups [][]engine.SimSpec
	for _, cpus := range sizes {
		groups = append(groups, c.specs("DirNNB", cpus, ""), c.specs("DirCV", cpus, ""))
	}
	rs, err := c.MergedGroups(groups...)
	if err != nil {
		return nil, err
	}
	for k, cpus := range sizes {
		full, cv := rs[2*k], rs[2*k+1]
		// Both schemes change state alike, so the coarse code's extra
		// messages are exactly the ones it wasted.
		var overshoot float64
		wasted := cv.SeqInvals - full.SeqInvals
		if cv.SeqInvals > 0 {
			overshoot = float64(wasted) / float64(cv.SeqInvals)
		}
		tbl.row(strconv.Itoa(cpus),
			cyc(full.PerRef("pipelined")), cyc(cv.PerRef("pipelined")),
			count(wasted), num("%.1f%%", 100*overshoot))
	}
	s.note("\nthe code stores 2·log2(n) bits per entry instead of n. A sizeable\n" +
		"fraction of its invalidation messages are wasted on caches the code\n" +
		"names but that hold no copy, yet because invalidations are a small\n" +
		"share of total cycles (Table 5) the end-to-end cost stays within a\n" +
		"few percent of the full map.\n")
	return s, nil
}

// runStorage renders the directory storage comparison behind the Section 6
// discussion: a 14-wide label column and 6-wide value columns one space
// apart, which the aligner prints from labels padded to those widths.
func runStorage(c *Context) (*Section, error) {
	s := &Section{ID: "storage", Title: "Directory entry storage by organization"}
	cpus := []int{4, 16, 64, 256}
	cols := make([]string, len(cpus))
	for i, n := range cpus {
		cols[i] = fmt.Sprintf("%5d", n)
	}
	tbl := s.table(fmt.Sprintf("%-14s", "organization"), cols...)
	tbl.Legend = "(bits/entry by cpu count)"
	for _, spec := range directory.StandardSpecs(1, 2, 4) {
		var cells []Cell
		for _, n := range cpus {
			cells = append(cells, count(spec.BitsPerEntry(n)))
		}
		tbl.row(spec.Name, cells...)
	}
	s.note("\nTang duplicate-tag equivalent (64 CPUs, 64K-line caches, 16M-block\n"+
		"memory, 20-bit tags): %.2f bits/block.\n",
		directory.TangBits(64, 64*1024, 16*1024*1024, 20))
	s.note("the full map grows linearly with machine size; limited pointers and\n" +
		"the coarse code grow logarithmically — the paper's scalability case.\n")
	return s, nil
}

// runFinite applies the Section 4 first-order finite-cache model: measure
// extra capacity misses at several cache sizes and add their memory
// traffic to the infinite-cache coherence cost.
func runFinite(c *Context) (*Section, error) {
	s := &Section{ID: "finite", Title: "First-order finite-cache estimate (Dir0B, pipelined)"}
	d0, err := c.Merged("Dir0B")
	if err != nil {
		return nil, err
	}
	traces, err := c.Traces()
	if err != nil {
		return nil, err
	}
	base := d0.PerRef("pipelined")
	tbl := s.table("cache", "capacity miss/ref", "est. cycles/ref", "vs infinite")
	for _, kb := range []int{4, 16, 64, 256} {
		cfg := cache.Config{SizeBytes: kb * 1024, Assoc: 2, HashIndex: true}
		var agg cache.FiniteStats
		for _, t := range traces {
			fs, err := cache.SimulateFinite(t, cfg)
			if err != nil {
				return nil, err
			}
			agg.Config, agg.CPUs = fs.Config, fs.CPUs
			agg.DataRefs += fs.DataRefs
			agg.DataMisses += fs.DataMisses
			agg.ColdMisses += fs.ColdMisses
			agg.CapacityMisses += fs.CapacityMisses
			agg.InstrRefs += fs.InstrRefs
			agg.InstrMisses += fs.InstrMisses
		}
		est := cache.FirstOrderEstimate(base, agg, bus.Pipelined().MemAccess)
		tbl.row(fmt.Sprintf("%dKB/2-way", kb), num("%.5f", agg.ExtraMissesPerRef()),
			cyc(est), num("+%.0f%%", 100*(est-base)/base))
	}
	s.note("\ninfinite-cache Dir0B baseline: %.4f cycles/ref. Large caches approach\n"+
		"the infinite-cache cost, the paper's justification for the\n"+
		"infinite-cache methodology.\n", base)
	return s, nil
}
