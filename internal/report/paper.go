// Package report regenerates the paper's tables and figures from fresh
// simulations and renders them side by side with the published values.
// Each experiment is registered under the paper artifact it reproduces
// (table3, table4, table5, fig1..fig5, and the Section 5.1/5.2/6 studies);
// cmd/experiments runs them all and EXPERIMENTS.md records the outcome.
package report

// Scheme display order used throughout the paper's tables.
var PaperSchemes = []string{"Dir1NB", "WTI", "Dir0B", "Dragon"}

// PaperTable3 holds the Table 3 reference counts the report quotes, in
// thousands: POPS in full, THOR's and PERO's totals only.
var PaperTable3 = map[string]struct{ Refs, Instr, Reads, Writes int }{
	"POPS": {Refs: 3142, Instr: 1624, Reads: 1257, Writes: 261},
	"THOR": {Refs: 3222},
	"PERO": {Refs: 3508},
}

// PaperTable4 holds the published event frequencies (percent of all
// references, averaged over POPS, THOR and PERO) from Table 4, keyed by
// the paper's row labels. Missing entries were not reported for that
// scheme.
var PaperTable4 = map[string]map[string]float64{
	"Dir1NB": {
		"instr": 49.72, "read": 39.82, "rd-hit": 34.32, "rd-miss(rm)": 5.18,
		"rm-blk-cln": 4.78, "rm-blk-drty": 0.40, "rm-first-ref": 0.32,
		"write": 10.46, "wrt-hit(wh)": 10.19,
		"wrt-miss(wm)": 0.17, "wm-blk-cln": 0.08, "wm-blk-drty": 0.09,
		"wm-first-ref": 0.08,
	},
	"WTI": {
		"instr": 49.72, "read": 39.82, "rd-hit": 38.88, "rd-miss(rm)": 0.62,
		"rm-first-ref": 0.32,
		"write":        10.46, "wrt-hit(wh)": 10.25,
		"wrt-miss(wm)": 0.12, "wm-first-ref": 0.08,
	},
	"Dir0B": {
		"instr": 49.72, "read": 39.82, "rd-hit": 38.88, "rd-miss(rm)": 0.62,
		"rm-blk-cln": 0.23, "rm-blk-drty": 0.40, "rm-first-ref": 0.32,
		"write": 10.46, "wrt-hit(wh)": 10.25, "wh-blk-cln": 0.41,
		"wh-blk-drty":  9.84,
		"wrt-miss(wm)": 0.11, "wm-blk-cln": 0.02, "wm-blk-drty": 0.09,
		"wm-first-ref": 0.08,
	},
	"Dragon": {
		"instr": 49.72, "read": 39.82, "rd-hit": 39.20, "rd-miss(rm)": 0.30,
		"rm-blk-cln": 0.14, "rm-blk-drty": 0.17, "rm-first-ref": 0.32,
		"write": 10.46, "wrt-hit(wh)": 10.36, "wh-distrib": 1.74,
		"wh-local":     8.62,
		"wrt-miss(wm)": 0.02, "wm-blk-cln": 0.01, "wm-blk-drty": 0.01,
		"wm-first-ref": 0.08,
	},
}

// PaperCyclesPipelined holds the Table 5 cumulative bus cycles per
// reference for the pipelined bus.
var PaperCyclesPipelined = map[string]float64{
	"Dir1NB": 0.3210,
	"WTI":    0.1466,
	"Dir0B":  0.0491,
	"Dragon": 0.0336,
	"DirNNB": 0.0499, // Section 6 sequential-invalidation result
}

// PaperDir0BDirAccess is the non-overlapped directory-access component of
// Dir0B's pipelined cost (Table 5).
const PaperDir0BDirAccess = 0.0041

// PaperTxnPerRef holds the Section 5.1 slopes: bus transactions per
// reference for the two schemes the paper quotes.
var PaperTxnPerRef = map[string]float64{
	"Dragon": 0.0206,
	"Dir0B":  0.0114,
}

// PaperFig1AtMostOne is the paper's headline Figure 1 statistic: the
// percentage of writes to previously-clean blocks that invalidate at most
// one remote cache.
const PaperFig1AtMostOne = 85.0

// PaperDir1B holds the Section 6 Dir1B linear model
// cycles/ref = base + slope·b, where b is the broadcast cost in cycles.
var PaperDir1B = struct{ Base, Slope float64 }{0.0485, 0.0006}

// PaperSpinlock holds the Section 5.2 result: Dir1NB pipelined cycles per
// reference with and without lock-test reads.
var PaperSpinlock = struct{ With, Without float64 }{0.32, 0.12}

// PaperBerkeley is the paper's Berkeley-Ownership estimate (pipelined
// cycles/ref, derived from Dir0B events with free directory checks). The
// printed value, 0.0499, sits above Dir0B's 0.0491 even though the text
// places Berkeley between Dir0B and Dragon; the text and arithmetic
// suggest the true value is Dir0B minus the 0.0041 directory component
// (~0.0450). Both are recorded.
var PaperBerkeley = struct{ Printed, Derived float64 }{0.0499, 0.0450}
