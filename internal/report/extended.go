package report

import (
	"cmp"
	"fmt"
	"strconv"
	"sync"

	"dirsim/internal/bus"
	"dirsim/internal/contention"
	"dirsim/internal/core"
	"dirsim/internal/engine"
	"dirsim/internal/event"
	"dirsim/internal/network"
	"dirsim/internal/sim"
	"dirsim/internal/trace"
	"dirsim/internal/workload"
)

// runExtended compares the full comparator set — the paper's four schemes
// plus the protocols its related-work section names: MESI/Illinois [5],
// Berkeley Ownership [7], Firefly [3], and the Yen–Fu single-bit
// refinement [11].
func runExtended(c *Context) (*Section, error) {
	s := &Section{ID: "extended", Title: "All schemes, including the related-work comparators"}
	tbl := s.table("scheme", "pipelined", "non-pipelined", "rd-miss %", "txn/ref")
	schemes := []string{"Dir1NB", "WTI", "Dir0B", "DirNNB", "YenFu", "Dir1B",
		"MESI", "Berkeley", "Firefly", "Dragon"}
	rs, err := c.mergedEach(schemes...)
	if err != nil {
		return nil, err
	}
	for i, r := range rs {
		tbl.row(schemes[i], cyc(r.PerRef("pipelined")), cyc(r.PerRef("non-pipelined")),
			num("%.3f", r.Counts.ReadMisses()), num("%.4f", r.Tally("pipelined").TransactionsPerRef()))
	}
	s.note("\nobservations: MESI's exclusive-clean state removes Dir0B's directory\n" +
		"query on private read-modify-writes; the simulated Berkeley engine\n" +
		"lands near the paper's re-priced Dir0B estimate; Firefly tracks\n" +
		"Dragon; Yen-Fu saves directory accesses but — as the paper notes —\n" +
		"not bus cycles, because single-bit upkeep replaces them.\n")
	return s, nil
}

// runNetwork prices directory and broadcast schemes on point-to-point
// interconnects — the quantified version of the paper's claim that
// directed invalidation is what lets coherence scale beyond a bus.
func runNetwork(c *Context) (*Section, error) {
	s := &Section{ID: "network", Title: "Link-cycles per reference on point-to-point interconnects"}
	sizes := []struct {
		cpus  int
		topos []network.Topology
	}{
		{16, []network.Topology{network.Bus(16), network.Crossbar(16), network.Mesh(4, 4), network.Hypercube(4)}},
		{64, []network.Topology{network.Bus(64), network.Crossbar(64), network.Mesh(8, 8), network.Torus(8, 8), network.Hypercube(6)}},
	}
	for _, sz := range sizes {
		traces, err := c.TracesAt(sz.cpus)
		if err != nil {
			return nil, err
		}
		s.note("machine size %d CPUs:\n", sz.cpus)
		names := make([]string, len(sz.topos))
		for i, t := range sz.topos {
			names[i] = t.Name
		}
		tbl := s.table("scheme", names...)
		// One family walk per trace prices all three schemes.
		schemes := []string{"DirNNB", "Dir2B", "Dir0B"}
		perScheme := make([][]*sim.Result, len(schemes))
		for _, tr := range traces {
			ps := make([]core.Protocol, len(schemes))
			for i, scheme := range schemes {
				p, err := core.NewByName(scheme, tr.CPUs)
				if err != nil {
					return nil, err
				}
				ps[i] = p
			}
			// Only NetTallies is read, and an empty Models means both
			// default bus models: one is the fewest sim.Options allows.
			rs, err := sim.SimulateFamily(ps, tr.Iterator(), sim.Options{Models: []bus.Model{bus.Pipelined()}, Topologies: sz.topos})
			if err != nil {
				return nil, err
			}
			for i, r := range rs {
				r.Trace = tr.Name
				perScheme[i] = append(perScheme[i], r)
			}
		}
		for i, scheme := range schemes {
			merged, err := sim.Merge(perScheme[i]...)
			if err != nil {
				return nil, err
			}
			var cells []Cell
			for _, name := range names {
				cells = append(cells, num("%.3f", merged.NetTallies[name].PerRef()))
			}
			tbl.row(scheme, cells...)
		}
		s.note("\n")
	}
	s.note("DirNNB's directed messages cost only the network's average distance;\n" +
		"Dir0B must flood every invalidation on a broadcast-free fabric, and\n" +
		"the gap widens with machine size — the paper's scalability argument\n" +
		"made quantitative. Dir2B sits between: its broadcast bit fires rarely.\n")
	return s, nil
}

// runMigration reproduces the paper's Section 4.4 methodology check:
// process-based and processor-based sharing classifications give nearly
// identical results when migration is rare, and diverge when it is not.
// Sharing is classified per processor by simulating caches per CPU and
// per process by remapping caches onto process ids (ProcAsCPU).
func runMigration(c *Context) (*Section, error) {
	s := &Section{ID: "migration", Title: "Process- vs processor-based sharing (Section 4.4)"}
	tbl := s.table("migration/turn", "shared blk (proc)", "shared blk (cpu)",
		"Dir0B cyc/ref (proc)", "Dir0B cyc/ref (cpu)")
	for _, rate := range []float64{0, 0.001, 0.01} {
		prof := workload.POPSProfile()
		prof.MigrationRate = rate
		cfg := workload.Config{
			Name: "pops", CPUs: c.CPUs, Refs: c.Refs,
			Seed: workload.SeedPOPS, Profile: prof,
		}
		tr, err := c.eng.Trace(c.ctx(), cfg)
		if err != nil {
			return nil, err
		}
		perCPU := engine.SimSpec{Trace: cfg, Scheme: "Dir0B", Check: c.Check}
		perProc := perCPU
		perProc.Filter = engine.FilterProcAsCPU
		rs, err := c.MergedGroups([]engine.SimSpec{perProc}, []engine.SimSpec{perCPU})
		if err != nil {
			return nil, err
		}
		// Per-process sharing is read from Proc fields, which ProcAsCPU
		// leaves alone; the interesting difference is the simulated cost.
		byProc := trace.ComputeStats(tr)
		tbl.row(fmt.Sprintf("%g", rate), count(byProc.SharedBlk), count(cpuSharedBlocks(tr)),
			cyc(rs[0].PerRef("pipelined")), cyc(rs[1].PerRef("pipelined")))
	}
	s.note("\nwith no migration the classifications coincide — the check the paper\n" +
		"reports ('the numbers were not significantly different'). As the\n" +
		"migration rate rises, processor-based simulation charges the drag of\n" +
		"moving working sets between caches as sharing cost; classifying per\n" +
		"process excludes it, which is why the paper chose that model.\n")
	return s, nil
}

// runSysPerf reproduces the paper's Section 5 system-performance
// estimate: how many processors a single shared bus supports before
// coherence traffic saturates it.
func runSysPerf(c *Context) (*Section, error) {
	s := &Section{ID: "sysperf", Title: "Effective processors on one bus (Section 5)"}
	tbl := s.table("scheme", "cycles/ref", "ns between bus cycles", "effective CPUs")
	schemes := []string{"Dir0B", "Dragon", "WTI", "Dir1NB"}
	rs, err := c.mergedEach(schemes...)
	if err != nil {
		return nil, err
	}
	for i, scheme := range schemes {
		sp := bus.PaperSystem(rs[i].PerRef("pipelined"))
		tbl.row(scheme, cyc(sp.CyclesPerRef), num("%.0f", sp.NSBetweenBusCycles()), num("%.1f", sp.EffectiveProcessors()))
	}
	paper := bus.PaperSystem(0.03)
	s.note("\npaper's example: %.4f cycles/ref on a 10-MIPS processor and 100ns bus\n"+
		"-> a bus cycle every ~1500ns and ~15 effective processors (computed\n"+
		"here: %.1f). This optimistic bound is why the paper argues a single\n"+
		"bus cannot scale and directories must move to a network.\n",
		0.03, paper.EffectiveProcessors())
	return s, nil
}

// runContention extends the Section 5 system estimate with queueing: the
// paper's bound divides bus capacity by demand; the timing replay makes
// processors actually wait for the bus, so achieved parallelism falls
// below the bound as the machine grows.
func runContention(c *Context) (*Section, error) {
	s := &Section{ID: "contention", Title: "Bus queueing vs the optimistic Section 5 bound"}
	cfg := contention.PaperConfig()
	schemes := []string{"Dir0B", "Dragon", "WTI"}
	sizes := []int{4, 8, 16, 32}
	aggs := make([][]contention.Stats, len(schemes))
	errs := make([]error, len(schemes))
	replay := func(i int) {
		aggs[i] = make([]contention.Stats, len(sizes))
		for k, cpus := range sizes {
			traces, err := c.TracesAt(cpus)
			if err != nil {
				errs[i] = err
				return
			}
			agg := &aggs[i][k]
			for _, tr := range traces {
				st, _, err := contention.RunScheme(schemes[i], tr, cfg)
				if err != nil {
					errs[i] = err
					return
				}
				agg.Span += st.Span
				agg.BusBusy += st.BusBusy
				agg.AloneTime += st.AloneTime
				agg.CPUs = st.CPUs
				agg.Refs += st.Refs
			}
		}
	}
	// The schemes' replays are independent. Under a Parallel executor
	// they run at once: the longest study then no longer finishes alone
	// on one core after every other study is done.
	var wg sync.WaitGroup
	for i := range schemes {
		if _, par := c.exec.(engine.Parallel); !par {
			replay(i)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			replay(i)
		}()
	}
	wg.Wait()
	if err := cmp.Or(errs...); err != nil {
		return nil, err
	}
	for i, scheme := range schemes {
		tbl := s.table(scheme, "effective CPUs (queued)", "bus utilization", "optimistic bound")
		for k, cpus := range sizes {
			agg := aggs[i][k]
			perRefDemand := agg.BusBusy / float64(agg.Refs)
			bound := float64(cpus)
			if perRefDemand > 0 {
				bound = min(bound, (cfg.ThinkCycles+perRefDemand)/perRefDemand)
			}
			tbl.row(strconv.Itoa(cpus)+" CPUs", num("%.2f", agg.EffectiveProcessors()),
				num("%.1f%%", 100*agg.Utilization()), num("%.2f", bound))
		}
		s.note("\n")
	}
	s.note("once the bus saturates, adding processors adds waiting, not work —\n" +
		"the queue-aware version of the paper's 'no more than 15-20 processors\n" +
		"on a bus' conclusion, and the quantitative case for directories on\n" +
		"point-to-point networks.\n")
	return s, nil
}

// runDirBandwidth quantifies the paper's conclusion that the directory is
// not a bottleneck: per reference, the directory is consulted once per
// miss (overlapped with the memory lookup) plus once per write hit to a
// clean block, so its access rate barely exceeds memory's.
func runDirBandwidth(c *Context) (*Section, error) {
	s := &Section{ID: "dirbw", Title: "Directory vs memory access bandwidth"}
	tbl := s.table("scheme", "mem ops/100 refs", "dir ops/100 refs", "dir/mem ratio")
	schemes := []string{"Dir0B", "DirNNB", "Dir1NB"}
	rs, err := c.mergedEach(schemes...)
	if err != nil {
		return nil, err
	}
	for i, scheme := range schemes {
		r := rs[i]
		cc := r.Counts
		// Memory operations: fills served from memory plus dirty
		// write-backs (which also involve a memory write).
		memFills := cc.PctSum(event.RdMissClean, event.RdMissMem, event.WrMissClean, event.WrMissMem)
		wbs := cc.PctSum(event.RdMissDirty, event.WrMissDirty)
		memOps := memFills + wbs
		// Directory operations: every miss looks the entry up, every
		// write hit to a clean block queries it, and each state
		// change writes it back (counted within the same access).
		dirOps := cc.ReadMisses() + cc.WriteMisses() + cc.Pct(event.WrHitClean)
		tbl.row(scheme, num("%.3f", memOps), num("%.3f", dirOps), num("%.2f", dirOps/memOps))
	}
	s.note("\nthe directory sees only slightly more traffic than memory (the\n" +
		"wh-blk-cln queries), and both distribute across nodes together —\n" +
		"the paper's conclusion that directory bandwidth 'is not much more\n" +
		"severe than the memory bandwidth need'.\n")
	return s, nil
}

// runBlockSize is a sensitivity study on the block size the paper fixes
// at 16 bytes: larger blocks exploit spatial locality (fewer cold misses)
// but induce false sharing, which hurts invalidation protocols more than
// update protocols.
func runBlockSize(c *Context) (*Section, error) {
	s := &Section{ID: "blocksize", Title: "Block-size sensitivity (paper fixes 16 bytes)"}
	tbl := s.table("block", "Dir0B cyc/ref", "Dir0B rd-miss %", "Dir0B inval<=1 %", "Dragon cyc/ref")
	// The engine prices each fill at the spec's block size. The 16-byte
	// row is the native spec (BlockBytes 0), which Table 4 already ran.
	sizes := []int{16, 32, 64, 128}
	var groups [][]engine.SimSpec
	for _, size := range sizes {
		for _, scheme := range []string{"Dir0B", "Dragon"} {
			g := c.specs(scheme, c.CPUs, "")
			if size != trace.BlockBytes {
				for i := range g {
					g[i].BlockBytes = size
				}
			}
			groups = append(groups, g)
		}
	}
	rs, err := c.MergedGroups(groups...)
	if err != nil {
		return nil, err
	}
	for i, size := range sizes {
		dir0b, dragon := rs[2*i], rs[2*i+1]
		tbl.row(strconv.Itoa(size)+"B", cyc(dir0b.PerRef("pipelined")), num("%.3f", dir0b.Counts.ReadMisses()),
			num("%.1f", dir0b.InvalClean.PctAtMost(1)), cyc(dragon.PerRef("pipelined")))
	}
	s.note("\nbigger blocks cut the cold-miss count but each fill moves more words\n" +
		"and false sharing creeps into the invalidation pattern; the paper's\n" +
		"16-byte choice sits before the false-sharing knee on these workloads.\n")
	return s, nil
}

// runFiniteCoherence verifies the paper's footnote 2 with a full
// finite-cache coherence simulation (not the first-order estimate): as
// the cache shrinks, capacity misses appear but the *coherence-related*
// miss component falls, because blocks an invalidation would have purged
// are often already evicted.
func runFiniteCoherence(c *Context) (*Section, error) {
	s := &Section{ID: "finitecoh", Title: "Coherence misses in finite caches (footnote 2)"}
	pops := c.StandardConfigs(c.CPUs)[0]
	// An effectively infinite cache first, then smaller ones.
	sizes := []int{4096, 64, 16, 4}
	specs := make([]engine.SimSpec, len(sizes))
	for i, kb := range sizes {
		specs[i] = engine.SimSpec{Trace: pops, Scheme: "FiniteDirNNB:" + strconv.Itoa(kb) + "k2w", Check: c.Check}
	}
	rs, err := c.eng.Results(c.ctx(), c.exec, specs)
	if err != nil {
		return nil, err
	}
	tbl := s.table("cache", "coherence miss %", "capacity miss %", "cycles/ref (pipelined)")
	for i, r := range rs {
		total := float64(r.Counts.Total)
		tbl.row(strconv.Itoa(sizes[i])+"KB", num("%.3f", 100*float64(r.CoherenceMisses)/total),
			num("%.3f", 100*float64(r.CapacityMisses)/total), cyc(r.PerRef("pipelined")))
	}
	s.note("\nthe paper's footnote 2: 'coherency-related misses will be fewer in a\n" +
		"finite-sized cache because some of the blocks that would be\n" +
		"invalidated ... have already been purged'. The coherence column\n" +
		"falls as the cache shrinks while capacity misses take over.\n")
	return s, nil
}

// cpuSharedBlocks counts data blocks touched by more than one *CPU* (the
// processor-based classification); Stats counts per process.
func cpuSharedBlocks(tr *trace.Trace) int {
	cpus := trace.Sharers{}
	for _, r := range tr.Refs {
		if r.IsData() {
			cpus.Touch(r.Block(), uint16(r.CPU))
		}
	}
	return cpus.Shared()
}
