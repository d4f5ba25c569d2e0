// Command experiments regenerates the paper's tables and figures from
// fresh simulations and prints them with the published values alongside.
//
// Usage:
//
//	experiments                    # run everything at the default size
//	experiments -run table4,fig1
//	experiments -refs 2000000      # closer to the paper's 3M-ref traces
//	experiments -run all -parallel 8
//	experiments -run all -parallel 0 -journal run.jsonl -manifest run.json
//	experiments -list
//
// With -parallel N (N > 1, or 0 for all cores) the experiments run
// concurrently on one engine and its cache, each engine batch on its own
// pool of N slots (so up to experiments × N job bodies at once); the
// report is byte-identical to the serial run, just produced faster.
//
// The observability flags instrument the run: -journal streams typed
// JSONL events (engine job spans, experiment brackets) to a file or
// stderr, -metrics writes the instrument registry's Prometheus text
// exposition (what -listen serves at /metrics) after the run, -pprof
// captures CPU and heap profiles, and -manifest writes the run report
// (obs.RunReport: configuration, seeds, per-experiment states and times,
// every counter and gauge, phases) as JSON. Any of them also prints the
// same report as a per-phase timing and cache summary to stderr. The
// report is built from the run's journal, kept in memory whenever any of
// these flags is set.
//
// -trace renders the run's journal — every job, attempt and simulation
// span, and retries — as Chrome trace-event JSON loadable in Perfetto
// (ui.perfetto.dev) or chrome://tracing.
// -listen starts a live HTTP monitor serving /metrics
// (Prometheus text exposition), /runz (the run report so far), and
// /debug/pprof/*. Every simulation the run performs adds its coherence
// tallies to the sim.proto.<scheme>.* metrics.
//
// -store points at a durable content-addressed result store directory
// (shared with dirsimd and other runs): simulations already stored are
// served from disk, fingerprint-validated, and fresh ones are written
// through; the report's store.* counters and gauges record its traffic.
//
// When experiments fail, every failure is reported (not just the first),
// a final "error" journal event summarizes them, and the exit code is
// non-zero; the surviving experiments still print.
package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"dirsim/internal/engine"
	"dirsim/internal/faults"
	"dirsim/internal/obs"
	"dirsim/internal/obs/httpmon"
	"dirsim/internal/report"
	"dirsim/internal/store"
	"dirsim/internal/workload"
)

// config carries the command's flags.
type config struct {
	sel       string
	refs      int
	cpus      int
	check     bool
	list      bool
	parallel  int
	journal   string
	metrics   string
	pprofDir  string
	manifest  string
	faults    string
	faultSeed uint64
	verify    bool
	retries   int
	timeout   time.Duration

	trace  string
	listen string

	store    string
	storeMax int64
}

func main() {
	var cfg config
	flag.StringVar(&cfg.sel, "run", "all", "comma-separated experiment IDs (or 'all')")
	flag.IntVar(&cfg.refs, "refs", 400_000, "approximate references per generated trace")
	flag.IntVar(&cfg.cpus, "cpus", 4, "processor count for the headline experiments")
	flag.BoolVar(&cfg.check, "check", false, "enable coherence checking (slower)")
	flag.BoolVar(&cfg.list, "list", false, "list experiment IDs and exit")
	flag.IntVar(&cfg.parallel, "parallel", 1, "job slots per engine batch; >1 also runs experiments concurrently (up to experiments × N bodies at once), 0 means all cores")
	flag.StringVar(&cfg.journal, "journal", "", "write a JSONL run journal to this file ('-' or 'stderr' for standard error)")
	flag.StringVar(&cfg.metrics, "metrics", "", "write the metric registry's Prometheus text exposition to this file after the run ('-' for stdout)")
	flag.StringVar(&cfg.pprofDir, "pprof", "", "capture cpu.pprof and heap.pprof into this directory")
	flag.StringVar(&cfg.manifest, "manifest", "", "write a JSON run manifest to this file after the run ('-' for stdout)")
	flag.StringVar(&cfg.faults, "faults", "", "inject deterministic faults, e.g. 'panic=0.05,error=0.1,truncate=0.1,poison=0.05' (implies -verify)")
	flag.Uint64Var(&cfg.faultSeed, "faultseed", 1, "seed for the fault-injection schedule (same spec+seed replays the same faults)")
	flag.BoolVar(&cfg.verify, "verify", false, "validate simulated reference counts and cached traces and results during the run")
	flag.IntVar(&cfg.retries, "retries", 0, "re-attempts per job body after a retryable failure")
	flag.DurationVar(&cfg.timeout, "timeout", 0, "per-job deadline (0 disables)")
	flag.StringVar(&cfg.trace, "trace", "", "export the run's execution timeline as Chrome trace-event JSON to this file ('-' for stdout; load in Perfetto or chrome://tracing)")
	flag.StringVar(&cfg.listen, "listen", "", "serve a live HTTP monitor on this address (e.g. ':8080'): /metrics, /runz, /debug/pprof/")
	flag.StringVar(&cfg.store, "store", "", "durable result store directory, shared with dirsimd and other runs (empty disables persistence)")
	flag.Int64Var(&cfg.storeMax, "store-max-bytes", 0, "store size bound triggering LRU eviction (0 = unbounded)")
	showVersion := flag.Bool("version", false, "print build version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println("experiments", obs.Build())
		return
	}
	if err := runExperiments(os.Stdout, os.Stderr, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// runExperiments drives the selected experiments, writing their rendered
// output to w and the observability summary (when enabled) to ew.
func runExperiments(w, ew io.Writer, cfg config) error {
	if cfg.list {
		for _, e := range report.Experiments() {
			fmt.Fprintf(w, "%-10s %s\n", e.ID, e.Title)
		}
		return nil
	}
	exps, err := report.Lookup(cfg.sel)
	if err != nil {
		return fmt.Errorf("%w\n\nvalid experiment IDs:\n%s\n(use -list to print this table)",
			err, experimentTable())
	}
	return runSelected(w, ew, cfg, exps)
}

// rendered is one experiment's outcome.
type rendered struct {
	out string
	err error
}

// runSelected executes the experiments with the configured executor and
// observability sinks. All failures are collected and reported together;
// successful outputs always print, in paper order.
func runSelected(w, ew io.Writer, cfg config, exps []report.Experiment) error {
	parallel := cfg.parallel
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	var exec engine.Executor = engine.Sequential{}
	if parallel > 1 {
		exec = engine.Parallel{Workers: parallel}
	}

	observing := cfg.journal != "" || cfg.metrics != "" || cfg.pprofDir != "" || cfg.manifest != ""
	reg := obs.NewRegistry()
	if observing || cfg.listen != "" {
		obs.RegisterBuildInfo(reg)
	}
	// Every run gets a trace identity: the journal is tagged with it and
	// the engine submissions carry it in their context, so dirsimq can
	// follow this run's causal chain (and distinguish interleaved runs
	// appending to a shared journal file). The run report (/runz, the
	// manifest, the summary) and the -trace export are computed from the
	// journal, kept in memory for them whether or not a -journal file is
	// asked for.
	runTC := obs.NewTraceContext()
	var jnl *obs.Journal
	var record obs.Record
	if observing || cfg.trace != "" || cfg.listen != "" {
		raw, err := obs.OpenJournal(cfg.journal, 0, 0, &record)
		if err != nil {
			return err
		}
		defer raw.Close()
		jnl = raw.WithTrace(runTC)
	}
	opts := engine.Options{Metrics: reg, Verify: cfg.verify, Retries: cfg.retries,
		JobTimeout: cfg.timeout}
	if cfg.store != "" {
		st, err := store.Open(cfg.store, store.Options{MaxBytes: cfg.storeMax, Metrics: reg})
		if err != nil {
			return err
		}
		opts.Store = st
	}
	if cfg.faults != "" {
		fcfg, err := faults.ParseSpec(cfg.faults, cfg.faultSeed)
		if err != nil {
			return err
		}
		if fcfg.Enabled() {
			opts.Faults = faults.New(fcfg)
		}
	}
	var prof *obs.Profiler
	if cfg.pprofDir != "" {
		var err error
		if prof, err = obs.StartProfiling(cfg.pprofDir); err != nil {
			return err
		}
	}

	eng := engine.New(opts)
	ctx := report.NewContextWith(cfg.refs, cfg.cpus, eng, exec)
	ctx.Check = cfg.check
	ctx.WithBase(obs.WithJournal(obs.WithTrace(context.Background(), runTC), jnl))

	runCfg := obs.RunConfig{Run: cfg.sel, Refs: ctx.Refs, CPUs: ctx.CPUs, Check: ctx.Check,
		Parallel: parallel, Executor: exec.Name(), Seeds: make(map[string]uint64),
		Trace: cfg.trace, Listen: cfg.listen, Store: cfg.store}
	for _, wc := range workload.StandardConfigs(ctx.CPUs, ctx.Refs) {
		runCfg.Seeds[wc.Name] = wc.Seed
	}
	if cfg.faults != "" {
		runCfg.Faults, runCfg.FaultSeed = cfg.faults, cfg.faultSeed
	}
	order := make(map[string]int, len(exps))
	for i, e := range exps {
		order[e.ID] = i
	}
	start := time.Now()
	// runReport is the run's one account: /runz serves it live, and its
	// final value is the manifest and the summary.
	runReport := func() obs.RunReport {
		r := obs.Report(&record, reg, start)
		r.Command, r.Build, r.Config = "experiments", obs.Build(), runCfg
		slices.SortStableFunc(r.Experiments, func(a, b obs.ExperimentReport) int {
			return cmp.Compare(order[a.ID], order[b.ID])
		})
		return r
	}

	if cfg.listen != "" {
		mon, err := httpmon.Start(cfg.listen, httpmon.Options{Metrics: reg, Runz: runReport})
		if err != nil {
			return err
		}
		defer mon.Close()
		fmt.Fprintf(ew, "experiments: monitoring on http://%s (/metrics, /runz, /debug/pprof/)\n", mon.Addr())
	}

	jnl.Event("run.start", "run", cfg.sel, "refs", ctx.Refs, "cpus", ctx.CPUs,
		"check", ctx.Check, "parallel", parallel, "executor", exec.Name())

	outs := make([]rendered, len(exps))
	runOne := func(i int) {
		out, err := ctx.RunExperiment(exps[i])
		outs[i] = rendered{out: out, err: err}
	}
	if parallel <= 1 {
		// Serial mode streams each success as it lands but keeps going
		// past failures, so one bad experiment in a -run list cannot
		// suppress the report of the others.
		for i := range exps {
			runOne(i)
			if outs[i].err == nil {
				fmt.Fprintln(w, outs[i].out)
			}
		}
	} else {
		// Concurrent mode: every experiment renders into its own slot
		// while the engine's caches deduplicate the shared runs. Each
		// Merge or Results call gets its own pool of N slots, so up to
		// experiments × N bodies run at once. Outputs print in paper
		// order afterwards, byte-identical to the serial report.
		var wg sync.WaitGroup
		for i := range exps {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				runOne(i)
			}()
		}
		wg.Wait()
		for i := range exps {
			if outs[i].err == nil {
				fmt.Fprintln(w, outs[i].out)
			}
		}
	}
	rep := runReport()
	if err := prof.Stop(); err != nil {
		fmt.Fprintln(ew, "experiments: pprof:", err)
	}

	var errs []error
	var failed []string
	for i, e := range exps {
		if outs[i].err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", e.ID, outs[i].err))
			failed = append(failed, e.ID)
		}
	}
	if len(errs) > 0 {
		jnl.Error("error", errors.Join(errs...), "failed", strings.Join(failed, ","))
		// The per-experiment causes always reach stderr — not only under
		// the observability summary — so a partially failed sweep is
		// diagnosable from the terminal alone. Partial failures (some
		// simulations of an experiment sank, the rest survived) render
		// their per-unit breakdown on the indented lines.
		fmt.Fprintf(ew, "\n%d of %d experiments failed:\n", len(failed), len(exps))
		for i, e := range exps {
			if outs[i].err != nil {
				fmt.Fprintf(ew, "  %s: %s\n", e.ID,
					strings.ReplaceAll(outs[i].err.Error(), "\n", "\n    "))
			}
		}
	}
	jnl.Event("run.finish", "wall_us", seconds(rep.WallSeconds).Microseconds(),
		"experiments", len(exps), "failed", len(failed),
		"cache_hits", rep.Counters["engine.cache.hits"], "cache_misses", rep.Counters["engine.cache.misses"])

	if cfg.trace != "" {
		if err := obs.WriteChromeFile(cfg.trace, record.Bytes()); err != nil {
			errs = append(errs, fmt.Errorf("trace: %w", err))
		}
	}
	if cfg.metrics != "" {
		if err := writeMetrics(w, reg, cfg.metrics); err != nil {
			errs = append(errs, err)
		}
	}
	if cfg.manifest != "" {
		if err := rep.Write(cfg.manifest); err != nil {
			errs = append(errs, err)
		}
	}
	if observing {
		printSummary(ew, rep)
	}
	return errors.Join(errs...)
}

// writeMetrics writes the registry's Prometheus text exposition to path
// ("-" means the report writer).
func writeMetrics(w io.Writer, reg *obs.Registry, path string) error {
	if path == "-" {
		return reg.WritePrometheus(w)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return reg.WritePrometheus(f)
}

// seconds converts a report's float seconds back to a duration.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// printSummary renders the run report for a human: wall time, cache
// economics, engine counters, and the per-phase and per-experiment time
// breakdowns.
func printSummary(ew io.Writer, rep obs.RunReport) {
	c := rep.Counters
	fmt.Fprintf(ew, "\n== run summary ==\n")
	fmt.Fprintf(ew, "wall time    %s\n", seconds(rep.WallSeconds).Round(time.Millisecond))
	fmt.Fprintf(ew, "cache        %d hits / %d misses (%.1f%% hit rate)\n",
		c["engine.cache.hits"], c["engine.cache.misses"], 100*rep.CacheHitRatio)
	if rep.Config.Store != "" {
		fmt.Fprintf(ew, "store        %d hits / %d misses, %d written, %d rejected (%d entries, %.1f MiB)\n",
			c["store.hits"], c["store.misses"], c["store.writes"], c["store.rejected"],
			rep.Gauges["store.entries"], float64(rep.Gauges["store.bytes"])/(1<<20))
	}
	fmt.Fprintf(ew, "engine       %d jobs, %d sims in %d walks, %d traces generated\n",
		c["engine.jobs.run"], c["engine.sims.run"], c["engine.walks.run"], c["engine.traces.generated"])
	fmt.Fprintf(ew, "phases:\n")
	for _, p := range rep.Phases {
		fmt.Fprintf(ew, "  %-12s %5d spans  %s\n", p.Phase, p.Count, p.Total.Round(time.Millisecond))
	}
	fmt.Fprintf(ew, "experiments:\n")
	for _, e := range rep.Experiments {
		status := ""
		if e.State == "failed" {
			status = "  FAILED: " + e.Error
		}
		fmt.Fprintf(ew, "  %-10s %8s%s\n", e.ID, seconds(e.Seconds).Round(time.Millisecond), status)
	}
}

// experimentTable renders the id/title listing used in error messages.
func experimentTable() string {
	var b strings.Builder
	for _, e := range report.Experiments() {
		fmt.Fprintf(&b, "  %-10s %s\n", e.ID, e.Title)
	}
	return strings.TrimRight(b.String(), "\n")
}
