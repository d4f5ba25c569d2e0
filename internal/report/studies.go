package report

import (
	"fmt"
	"strings"

	"dirsim/internal/bus"
	"dirsim/internal/cache"
	"dirsim/internal/directory"
	"dirsim/internal/engine"
)

// runQSens reproduces the Section 5.1 analysis: adding q fixed cycles to
// every bus transaction. cycles/ref(q) = base + q·(txn/ref), computed from
// the same simulations as Figure 2.
func runQSens(c *Context) (string, error) {
	var b strings.Builder
	b.WriteString(section("qsens", "Cycles per reference as fixed transaction cost q grows"))
	qs := []float64{0, 1, 2, 4}
	cols := make([]string, len(qs))
	for i, q := range qs {
		cols[i] = fmt.Sprintf("q=%g", q)
	}
	tbl := newTable("scheme", append(cols, "slope (txn/ref)")...)
	type line struct{ base, slope float64 }
	lines := map[string]line{}
	for _, scheme := range PaperSchemes {
		r, err := c.Merged(scheme)
		if err != nil {
			return "", err
		}
		t := r.Tally("pipelined")
		l := line{base: t.PerRef(), slope: t.TransactionsPerRef()}
		lines[scheme] = l
		cells := []string{scheme}
		for _, q := range qs {
			cells = append(cells, cyc(l.base+q*l.slope))
		}
		cells = append(cells, fmt.Sprintf("%.4f", l.slope))
		tbl.row(cells...)
	}
	b.WriteString(tbl.String())
	d0, dg := lines["Dir0B"], lines["Dragon"]
	gap0 := 100 * (d0.base - dg.base) / dg.base
	gap1 := 100 * (d0.base + d0.slope - dg.base - dg.slope) / (dg.base + dg.slope)
	b.WriteString(fmt.Sprintf("\npaper model: Dragon 0.0336+0.0206q, Dir0B 0.0491+0.0114q; at q=1 the\n"+
		"Dir0B premium over Dragon shrinks from 46%% to 12%%.\n"+
		"measured:   Dragon %s+%.4fq, Dir0B %s+%.4fq; premium %.0f%% -> %.0f%%.\n",
		cyc(dg.base), dg.slope, cyc(d0.base), d0.slope, gap0, gap1))
	return b.String(), nil
}

// runSpinlocks reproduces Section 5.2: rerunning Dir1NB and Dir0B with all
// lock-test reads removed from the traces.
func runSpinlocks(c *Context) (string, error) {
	var b strings.Builder
	b.WriteString(section("spinlocks", "Pipelined cycles/ref with and without lock-test spins"))
	tbl := newTable("scheme", "with spins", "without spins", "paper")
	for _, scheme := range []string{"Dir1NB", "Dir0B"} {
		rs, err := c.MergedGroups(c.specs(scheme, c.CPUs, ""),
			c.specs(scheme, c.CPUs, engine.FilterNoSpins))
		if err != nil {
			return "", err
		}
		with, without := rs[0], rs[1]
		paperCell := "~unchanged"
		if scheme == "Dir1NB" {
			paperCell = fmt.Sprintf("%.2f -> %.2f", PaperSpinlock.With, PaperSpinlock.Without)
		}
		tbl.row(scheme, cyc(with.PerRef("pipelined")), cyc(without.PerRef("pipelined")), paperCell)
	}
	b.WriteString(tbl.String())
	b.WriteString("\nlocks bounce between the spinning caches under Dir1NB, so removing\n" +
		"the test reads collapses its cost; Dir0B is essentially unaffected.\n" +
		"Software schemes that flush critical sections behave like Dir1NB.\n")
	return b.String(), nil
}

// runDirNNB reproduces the first Section 6 result: replacing Dir0B's
// broadcast invalidations with directed sequential invalidations (full-map
// DirNNB) costs almost nothing, because writes rarely invalidate more than
// one cache.
func runDirNNB(c *Context) (string, error) {
	var b strings.Builder
	b.WriteString(section("dirnnb", "Broadcast vs sequential invalidation"))
	d0, err := c.Merged("Dir0B")
	if err != nil {
		return "", err
	}
	dn, err := c.Merged("DirNNB")
	if err != nil {
		return "", err
	}
	tbl := newTable("scheme", "cycles/ref (pipelined)", "paper")
	tbl.row("Dir0B (broadcast)", cyc(d0.PerRef("pipelined")), cyc(PaperCyclesPipelined["Dir0B"]))
	tbl.row("DirNNB (sequential)", cyc(dn.PerRef("pipelined")), cyc(PaperCyclesPipelined["DirNNB"]))
	b.WriteString(tbl.String())
	b.WriteString(fmt.Sprintf("\nsequential invalidation costs %.2f%% more cycles (paper: +1.6%%:\n"+
		"0.0491 -> 0.0499). Directed messages need no bus with broadcast\n"+
		"capability, the property that lets directories scale beyond one bus.\n"+
		"DirNNB sent %.3f directed invalidations per 100 refs.\n",
		100*(dn.PerRef("pipelined")-d0.PerRef("pipelined"))/d0.PerRef("pipelined"),
		100*float64(dn.SeqInvals)/float64(dn.Counts.Total)))
	return b.String(), nil
}

// runDir1B reproduces the Section 6 Dir1B analysis: one pointer plus a
// broadcast bit, with broadcast cost b as a parameter. The simulation runs
// once; the linear model follows from the measured broadcast frequency.
func runDir1B(c *Context) (string, error) {
	var b strings.Builder
	b.WriteString(section("dir1b", "Dir1B: cycles/ref as a function of broadcast cost b"))
	r, err := c.Merged("Dir1B")
	if err != nil {
		return "", err
	}
	t := r.Tally("pipelined")
	base := t.PerRef()
	slope := float64(r.Broadcasts) / float64(r.Counts.Total)
	// base was measured at b=1, so the b-parameterized line is
	// (base - slope) + slope*b.
	b0 := base - slope
	tbl := newTable("b (cycles)", "cycles/ref", "paper model")
	for _, bc := range []float64{1, 2, 4, 8, 16} {
		tbl.row(fmt.Sprintf("%g", bc), cyc(b0+slope*bc),
			cyc(PaperDir1B.Base+PaperDir1B.Slope*bc))
	}
	b.WriteString(tbl.String())
	b.WriteString(fmt.Sprintf("\nmeasured model: %s + %.4f·b (paper: %.4f + %.4f·b).\n"+
		"broadcasts are needed on only %.3f%% of references, so even expensive\n"+
		"broadcasts barely move the total — the single-pointer entry covers\n"+
		"the common case.\n",
		cyc(b0), slope, PaperDir1B.Base, PaperDir1B.Slope, 100*slope))
	return b.String(), nil
}

// runBerkeley reproduces the paper's aside: the Berkeley Ownership
// protocol estimated from Dir0B's event frequencies by zeroing the
// directory-check cost.
func runBerkeley(c *Context) (string, error) {
	var b strings.Builder
	b.WriteString(section("berkeley", "Berkeley Ownership estimate from Dir0B events"))
	d0, err := c.Merged("Dir0B")
	if err != nil {
		return "", err
	}
	dg, err := c.Merged("Dragon")
	if err != nil {
		return "", err
	}
	br := d0.Tally("pipelined").PerRefBreakdown()
	berkeley := br.Total() - br[bus.CatDirAccess]
	tbl := newTable("scheme", "cycles/ref (pipelined)")
	tbl.row("Dir0B", cyc(br.Total()))
	tbl.row("Berkeley (derived)", cyc(berkeley))
	tbl.row("Dragon", cyc(dg.PerRef("pipelined")))
	b.WriteString(tbl.String())
	b.WriteString(fmt.Sprintf("\nthe paper prints %.4f for Berkeley but describes it as between Dir0B\n"+
		"and Dragon; Dir0B minus its directory component (%.4f here) is the\n"+
		"consistent reading, and that ordering is what this run shows.\n",
		PaperBerkeley.Printed, berkeley))
	return b.String(), nil
}

// runScaling sweeps the pointer count of the Dir_i schemes at several
// machine sizes — the study the paper outlines but could not run for lack
// of wider traces.
func runScaling(c *Context) (string, error) {
	var b strings.Builder
	b.WriteString(section("scaling", "Dir_iB and Dir_iNB across pointer counts and machine sizes"))
	schemes := []string{"Dir0B", "Dir1B", "Dir2B", "Dir4B", "Dir1NB", "Dir2NB", "Dir4NB", "DirNNB"}
	for _, cpus := range []int{4, 8, 16} {
		groups := make([][]engine.SimSpec, len(schemes))
		for i, scheme := range schemes {
			groups[i] = c.specs(scheme, cpus, "")
		}
		rs, err := c.MergedGroups(groups...)
		if err != nil {
			return "", err
		}
		b.WriteString(fmt.Sprintf("machine size %d CPUs:\n", cpus))
		tbl := newTable("scheme", "cycles/ref", "rd-miss %", "bcasts/1k refs", "forced-inv/1k refs", "inval<=1 %")
		for i, scheme := range schemes {
			r := rs[i]
			tbl.row(scheme,
				cyc(r.PerRef("pipelined")),
				fmt.Sprintf("%.3f", r.Counts.ReadMisses()),
				fmt.Sprintf("%.2f", 1000*float64(r.Broadcasts)/float64(r.Counts.Total)),
				fmt.Sprintf("%.2f", 1000*float64(r.ForcedInvals)/float64(r.Counts.Total)),
				fmt.Sprintf("%.1f", r.InvalClean.PctAtMost(1)))
		}
		b.WriteString(tbl.String())
		b.WriteByte('\n')
	}
	b.WriteString("a couple of pointers already make broadcasts (B schemes) or forced\n" +
		"invalidations (NB schemes) rare; the miss-rate penalty of Dir_iNB\n" +
		"shrinks as i grows, the trade the paper proposes for scalability.\n")
	return b.String(), nil
}

// runCoarse evaluates the Section 6 coarse ternary-digit code: exact
// directed invalidation (DirNNB) vs superset invalidation in 2·log n bits.
func runCoarse(c *Context) (string, error) {
	var b strings.Builder
	b.WriteString(section("coarse", "Coarse-code superset invalidation vs full map"))
	tbl := newTable("cpus", "DirNNB cycles/ref", "DirCV cycles/ref", "wasted invals", "overshoot")
	for _, cpus := range []int{4, 8, 16, 32} {
		rs, err := c.MergedGroups(c.specs("DirNNB", cpus, ""), c.specs("DirCV", cpus, ""))
		if err != nil {
			return "", err
		}
		full, cv := rs[0], rs[1]
		// Both schemes change state alike, so the coarse code's extra
		// messages are exactly the ones it wasted.
		var overshoot float64
		wasted := cv.SeqInvals - full.SeqInvals
		if cv.SeqInvals > 0 {
			overshoot = float64(wasted) / float64(cv.SeqInvals)
		}
		tbl.row(fmt.Sprintf("%d", cpus),
			cyc(full.PerRef("pipelined")), cyc(cv.PerRef("pipelined")),
			fmt.Sprintf("%d", wasted), fmt.Sprintf("%.1f%%", 100*overshoot))
	}
	b.WriteString(tbl.String())
	b.WriteString("\nthe code stores 2·log2(n) bits per entry instead of n. A sizeable\n" +
		"fraction of its invalidation messages are wasted on caches the code\n" +
		"names but that hold no copy, yet because invalidations are a small\n" +
		"share of total cycles (Table 5) the end-to-end cost stays within a\n" +
		"few percent of the full map.\n")
	return b.String(), nil
}

// runStorage renders the directory storage comparison behind the Section 6
// discussion.
func runStorage(c *Context) (string, error) {
	var b strings.Builder
	b.WriteString(section("storage", "Directory entry storage by organization"))
	b.WriteString(directory.StorageTable(
		directory.StandardSpecs(1, 2, 4),
		[]int{4, 16, 64, 256}))
	b.WriteString(fmt.Sprintf("\nTang duplicate-tag equivalent (64 CPUs, 64K-line caches, 16M-block\n"+
		"memory, 20-bit tags): %.2f bits/block.\n",
		directory.TangBits(64, 64*1024, 16*1024*1024, 20)))
	b.WriteString("the full map grows linearly with machine size; limited pointers and\n" +
		"the coarse code grow logarithmically — the paper's scalability case.\n")
	return b.String(), nil
}

// runFinite applies the Section 4 first-order finite-cache model: measure
// extra capacity misses at several cache sizes and add their memory
// traffic to the infinite-cache coherence cost.
func runFinite(c *Context) (string, error) {
	var b strings.Builder
	b.WriteString(section("finite", "First-order finite-cache estimate (Dir0B, pipelined)"))
	d0, err := c.Merged("Dir0B")
	if err != nil {
		return "", err
	}
	traces, err := c.Traces()
	if err != nil {
		return "", err
	}
	base := d0.PerRef("pipelined")
	mem := bus.Pipelined().MemAccess
	tbl := newTable("cache", "capacity miss/ref", "est. cycles/ref", "vs infinite")
	for _, kb := range []int{4, 16, 64, 256} {
		cfg := cache.Config{SizeBytes: kb * 1024, Assoc: 2, HashIndex: true}
		var agg cache.FiniteStats
		for _, t := range traces {
			s, err := cache.SimulateFinite(t, cfg)
			if err != nil {
				return "", err
			}
			agg.Config = s.Config
			agg.CPUs = s.CPUs
			agg.DataRefs += s.DataRefs
			agg.DataMisses += s.DataMisses
			agg.ColdMisses += s.ColdMisses
			agg.CapacityMisses += s.CapacityMisses
			agg.InstrRefs += s.InstrRefs
			agg.InstrMisses += s.InstrMisses
		}
		est := cache.FirstOrderEstimate(base, agg, mem)
		tbl.row(fmt.Sprintf("%dKB/2-way", kb),
			fmt.Sprintf("%.5f", agg.ExtraMissesPerRef()),
			cyc(est), fmt.Sprintf("+%.0f%%", 100*(est-base)/base))
	}
	b.WriteString(tbl.String())
	b.WriteString(fmt.Sprintf("\ninfinite-cache Dir0B baseline: %s cycles/ref. Large caches approach\n"+
		"the infinite-cache cost, the paper's justification for the\n"+
		"infinite-cache methodology.\n", cyc(base)))
	return b.String(), nil
}
