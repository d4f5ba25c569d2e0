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
// concurrently on the execution engine's worker pool, sharing one
// content-addressed cache of traces and simulation results; the rendered
// report is byte-identical to the serial run, just produced faster.
//
// The observability flags instrument the run: -journal streams typed
// JSONL events (engine job spans, experiment brackets) to a file or
// stderr, -metrics writes the instrument registry's text exposition
// after the run, -pprof captures CPU and heap profiles, and -manifest
// records the run's configuration, seeds, per-experiment wall times, and
// engine counters as JSON. Any of them also prints a per-phase timing
// and cache summary to stderr.
//
// -trace renders the run's journal — every job, attempt and simulation
// span, retries, sampled protocol events — as Chrome trace-event JSON
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing; without
// -journal the journal is kept in memory for it.
// -listen starts a live HTTP monitor serving /metrics
// (Prometheus text exposition), /runz (JSON run progress, computed from
// the run's journal, which it keeps in memory), and /debug/pprof/*.
// Either flag auto-enables sampled coherence-protocol telemetry;
// -protosample tunes its stride (every Nth coherence event lands as a
// trace instant) or forces it on without the other flags.
//
// -store points at a durable content-addressed result store directory
// (shared with dirsimd and other runs): simulations already stored are
// served from disk, fingerprint-validated, and fresh ones are written
// through; the manifest and summary record the store's hit/miss counts.
//
// When experiments fail, every failure is reported (not just the first),
// a final "error" journal event summarizes them, and the exit code is
// non-zero; the surviving experiments still print.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
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

	trace       string
	listen      string
	protoSample int

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
	flag.IntVar(&cfg.parallel, "parallel", 1, "simulation worker pool size; >1 runs experiments concurrently, 0 means all cores")
	flag.StringVar(&cfg.journal, "journal", "", "write a JSONL run journal to this file ('-' or 'stderr' for standard error)")
	flag.StringVar(&cfg.metrics, "metrics", "", "write the metric registry's text exposition to this file after the run ('-' for stdout)")
	flag.StringVar(&cfg.pprofDir, "pprof", "", "capture cpu.pprof and heap.pprof into this directory")
	flag.StringVar(&cfg.manifest, "manifest", "", "write a JSON run manifest to this file after the run ('-' for stdout)")
	flag.StringVar(&cfg.faults, "faults", "", "inject deterministic faults, e.g. 'panic=0.05,error=0.1,truncate=0.1,poison=0.05' (implies -verify)")
	flag.Uint64Var(&cfg.faultSeed, "faultseed", 1, "seed for the fault-injection schedule (same spec+seed replays the same faults)")
	flag.BoolVar(&cfg.verify, "verify", false, "validate simulated reference counts and cached traces and results during the run")
	flag.IntVar(&cfg.retries, "retries", 0, "re-attempts per job body after a retryable failure")
	flag.DurationVar(&cfg.timeout, "timeout", 0, "per-job deadline (0 disables)")
	flag.StringVar(&cfg.trace, "trace", "", "export the run's execution timeline as Chrome trace-event JSON to this file ('-' for stdout; load in Perfetto or chrome://tracing)")
	flag.StringVar(&cfg.listen, "listen", "", "serve a live HTTP monitor on this address (e.g. ':8080'): /metrics, /runz, /debug/pprof/")
	flag.IntVar(&cfg.protoSample, "protosample", 0, "coherence-telemetry stride: every Nth coherence event becomes a trace instant (0 auto-enables 64 with -trace or -listen, negative disables)")
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
	dur time.Duration
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
	// Protocol telemetry defaults on (stride 64) whenever someone is
	// looking — a trace export or a live monitor — and stays off otherwise
	// so the plain CLI path keeps its zero-cost hot loop.
	protoSample := cfg.protoSample
	if protoSample == 0 && (cfg.trace != "" || cfg.listen != "") {
		protoSample = 64
	}
	if protoSample < 0 {
		protoSample = 0
	}
	// Every run gets a trace identity: the journal is tagged with it and
	// the engine submissions carry it in their context, so dirsimq can
	// follow this run's causal chain (and distinguish interleaved runs
	// appending to a shared journal file). The -trace export and the
	// monitor's /runz are computed from the journal, kept in memory for
	// them whether or not a -journal file is asked for.
	runTC := obs.NewTraceContext()
	var jnl *obs.Journal
	var record obs.Record
	if cfg.journal != "" || cfg.trace != "" || cfg.listen != "" {
		var tee []io.Writer
		if cfg.trace != "" || cfg.listen != "" {
			tee = append(tee, &record)
		}
		raw, err := obs.OpenJournal(cfg.journal, tee...)
		if err != nil {
			return err
		}
		defer raw.Close()
		jnl = raw.WithTrace(runTC)
	}
	opts := engine.Options{Metrics: reg, Verify: cfg.verify, Retries: cfg.retries,
		JobTimeout: cfg.timeout, ProtoSample: protoSample}
	var st *store.Store
	if cfg.store != "" {
		var err error
		if st, err = store.Open(cfg.store, store.Options{MaxBytes: cfg.storeMax, Metrics: reg}); err != nil {
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

	if cfg.listen != "" {
		up := time.Now()
		mon, err := httpmon.Start(cfg.listen, httpmon.Options{
			Metrics: reg,
			Runz:    func() any { return obs.Runz(&record, reg, up) },
		})
		if err != nil {
			return err
		}
		defer mon.Close()
		fmt.Fprintf(ew, "experiments: monitoring on http://%s (/metrics, /runz, /debug/pprof/)\n", mon.Addr())
	}

	start := time.Now()
	jnl.Event("run.start", "run", cfg.sel, "refs", ctx.Refs, "cpus", ctx.CPUs,
		"check", ctx.Check, "parallel", parallel, "executor", exec.Name())

	outs := make([]rendered, len(exps))
	runOne := func(i int) {
		t0 := time.Now()
		out, err := ctx.RunExperiment(exps[i])
		outs[i] = rendered{out: out, err: err, dur: time.Since(t0)}
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
		// while the engine's worker pool bounds the simulation
		// concurrency and its caches deduplicate the shared runs;
		// outputs print in paper order afterwards, so the report is
		// byte-identical to the serial one.
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
	wall := time.Since(start)
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
	stats := eng.Stats()
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
	jnl.Event("run.finish", "wall_us", wall.Microseconds(),
		"experiments", len(exps), "failed", len(failed),
		"cache_hits", stats.CacheHits, "cache_misses", stats.CacheMisses)

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
	exp := obs.PhaseStat{Phase: "experiment", Count: int64(len(outs))}
	for _, o := range outs {
		exp.Total += o.dur
	}
	ph := obs.PhaseBreakdown(reg, exp)
	if cfg.manifest != "" {
		cfg.protoSample = protoSample // record the resolved stride, not the flag
		m := buildManifest(cfg, ctx, exec, parallel, exps, outs, stats, ph, st, start, wall)
		if err := m.Write(cfg.manifest); err != nil {
			errs = append(errs, err)
		}
	}
	if observing {
		printSummary(ew, ph, stats, st, wall, exps, outs)
	}
	return errors.Join(errs...)
}

// writeMetrics writes the registry's text exposition to path ("-" means
// the report writer).
func writeMetrics(w io.Writer, reg *obs.Registry, path string) error {
	if path == "-" {
		return reg.WriteText(w)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return reg.WriteText(f)
}

// buildManifest assembles the run manifest: configuration and seeds,
// per-experiment outcomes, engine counters, cache hit ratio, phases.
func buildManifest(cfg config, ctx *report.Context, exec engine.Executor, parallel int,
	exps []report.Experiment, outs []rendered, stats engine.Stats,
	ph []obs.PhaseStat, st *store.Store, start time.Time, wall time.Duration) *obs.RunManifest {
	seeds := make(map[string]uint64)
	for _, wc := range workload.StandardConfigs(ctx.CPUs, ctx.Refs) {
		seeds[wc.Name] = wc.Seed
	}
	runs := make([]obs.ExperimentRun, len(exps))
	for i, e := range exps {
		runs[i] = obs.ExperimentRun{ID: e.ID, Seconds: outs[i].dur.Seconds()}
		if outs[i].err != nil {
			runs[i].Error = outs[i].err.Error()
		}
	}
	m := &obs.RunManifest{
		Schema:      obs.SchemaVersion,
		Command:     "experiments",
		Build:       obs.Build(),
		Start:       start,
		WallSeconds: wall.Seconds(),
		Config: obs.ManifestConfig{
			Run:         cfg.sel,
			Refs:        ctx.Refs,
			CPUs:        ctx.CPUs,
			Check:       ctx.Check,
			Parallel:    parallel,
			Executor:    exec.Name(),
			Seeds:       seeds,
			Trace:       cfg.trace,
			Listen:      cfg.listen,
			ProtoSample: cfg.protoSample,
		},
		Experiments:   runs,
		Engine:        ctx.Engine().Metrics().Snapshot().Counters,
		CacheHitRatio: obs.HitRatio(stats.CacheHits, stats.CacheMisses),
		Phases:        ph,
	}
	if cfg.faults != "" {
		m.Config.Faults = cfg.faults
		m.Config.FaultSeed = cfg.faultSeed
	}
	if st != nil {
		ss := st.Stats()
		m.Store = &obs.ManifestStore{
			Dir:       ss.Dir,
			Entries:   ss.Entries,
			Bytes:     ss.Bytes,
			Hits:      ss.Hits,
			Misses:    ss.Misses,
			Rejected:  ss.Rejected,
			Writes:    ss.Writes,
			Evictions: ss.Evictions,
		}
	}
	return m
}

// printSummary renders the human-readable wrap-up: wall time, cache
// economics, engine counters, and the per-phase and per-experiment time
// breakdowns.
func printSummary(ew io.Writer, ph []obs.PhaseStat, stats engine.Stats, st *store.Store,
	wall time.Duration, exps []report.Experiment, outs []rendered) {
	fmt.Fprintf(ew, "\n== run summary ==\n")
	fmt.Fprintf(ew, "wall time    %s\n", wall.Round(time.Millisecond))
	fmt.Fprintf(ew, "cache        %d hits / %d misses (%.1f%% hit rate)\n",
		stats.CacheHits, stats.CacheMisses,
		100*obs.HitRatio(stats.CacheHits, stats.CacheMisses))
	if st != nil {
		ss := st.Stats()
		fmt.Fprintf(ew, "store        %d hits / %d misses, %d written, %d rejected (%d entries, %.1f MiB)\n",
			ss.Hits, ss.Misses, ss.Writes, ss.Rejected, ss.Entries,
			float64(ss.Bytes)/(1<<20))
	}
	fmt.Fprintf(ew, "engine       %d jobs, %d sims, %d traces generated\n",
		stats.JobsRun, stats.SimsRun, stats.TracesGenerated)
	fmt.Fprintf(ew, "phases:\n")
	for _, p := range ph {
		fmt.Fprintf(ew, "  %-12s %5d spans  %s\n", p.Phase, p.Count, p.Total.Round(time.Millisecond))
	}
	fmt.Fprintf(ew, "experiments:\n")
	for i, e := range exps {
		status := ""
		if outs[i].err != nil {
			status = "  FAILED: " + outs[i].err.Error()
		}
		fmt.Fprintf(ew, "  %-10s %8s%s\n", e.ID, outs[i].dur.Round(time.Millisecond), status)
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
