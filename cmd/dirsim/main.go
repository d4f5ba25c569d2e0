// Command dirsim runs one or more coherence schemes over a workload and
// prints event frequencies and bus-cycle costs.
//
// Usage:
//
//	dirsim -workload pops -cpus 4 -refs 500000 -schemes Dir1NB,WTI,Dir0B,Dragon
//	dirsim -trace trace.bin -schemes Dir0B
//
// With -stats the trace characteristics (Table 3 style) are printed too;
// -nospins removes lock-test reads first (the Section 5.2 experiment);
// -conformance runs the correctness battery on each scheme instead of a
// simulation; -journal streams structured JSONL events (one
// simulate.finish per scheme with its wall time and headline numbers) to
// a file or stderr.
//
// -tracejson renders the run's journal — one span per simulated scheme
// plus sampled coherence-protocol instants (invalidations of clean
// shared blocks, broadcasts, forced invalidations) — as Chrome
// trace-event JSON loadable in Perfetto or chrome://tracing; without
// -journal the journal is kept in memory for it. (-trace is the binary
// *input* trace; the JSON *output* trace is -tracejson.)
// -protosample tunes the telemetry stride: every Nth coherence event
// becomes a trace instant (0 auto-enables 64 with -tracejson, negative
// disables).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"dirsim/internal/core"
	"dirsim/internal/obs"
	"dirsim/internal/sim"
	"dirsim/internal/trace"
	"dirsim/internal/verify"
	"dirsim/internal/workload"
)

func main() {
	var (
		wl      = flag.String("workload", "pops", "workload name: pops, thor, pero, pingpong, migratory, prodcons, readshared, private, spincontend")
		traceIn = flag.String("trace", "", "read a binary trace file instead of generating a workload")
		cpus    = flag.Int("cpus", 4, "processor count for generated workloads")
		refs    = flag.Int("refs", 500000, "approximate trace length for generated workloads")
		schemes = flag.String("schemes", "Dir1NB,WTI,Dir0B,Dragon", "comma-separated scheme names")
		stats   = flag.Bool("stats", false, "print trace characteristics")
		events  = flag.Bool("events", false, "print the full event-frequency table per scheme")
		nospins = flag.Bool("nospins", false, "filter lock-test spin reads out of the trace first")
		check   = flag.Bool("check", false, "run with coherence checking enabled")
		csvOut  = flag.String("csv", "", "additionally write results as CSV to this file ('-' for stdout)")
		conform = flag.Bool("conformance", false, "run the full correctness battery (model check + kernels + application trace) on each scheme instead of a simulation")
		journal = flag.String("journal", "", "write a JSONL run journal to this file ('-' or 'stderr' for standard error)")
		traceJS = flag.String("tracejson", "", "export a Chrome trace-event JSON timeline to this file ('-' for stdout; load in Perfetto or chrome://tracing)")
		protoN  = flag.Int("protosample", 0, "coherence-telemetry stride: every Nth coherence event becomes a trace instant (0 auto-enables 64 with -tracejson, negative disables)")
		showVer = flag.Bool("version", false, "print build version and exit")
	)
	flag.Parse()
	if *showVer {
		fmt.Println("dirsim", obs.Build())
		return
	}
	if *conform {
		if err := runConformance(*schemes); err != nil {
			fmt.Fprintln(os.Stderr, "dirsim:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*wl, *traceIn, *cpus, *refs, *schemes, *stats, *events, *nospins, *check, *csvOut, *journal, *traceJS, *protoN); err != nil {
		fmt.Fprintln(os.Stderr, "dirsim:", err)
		os.Exit(1)
	}
}

// runConformance runs the verification battery for each named scheme.
func runConformance(schemes string) error {
	for _, scheme := range strings.Split(schemes, ",") {
		scheme = strings.TrimSpace(scheme)
		if scheme == "" {
			continue
		}
		// Validate the name before the battery spends time on it.
		if _, err := core.NewByName(scheme, 2); err != nil {
			return err
		}
		err := verify.Battery(func(ncpu int) core.Protocol {
			p, buildErr := core.NewByName(scheme, ncpu)
			if buildErr != nil {
				panic(buildErr)
			}
			return p
		})
		if err != nil {
			return fmt.Errorf("%s FAILED: %w", scheme, err)
		}
		fmt.Printf("%-8s PASS (model check + kernels + application trace)\n", scheme)
	}
	return nil
}

func run(wl, traceIn string, cpus, refs int, schemes string, stats, events, nospins, check bool, csvOut, journal, traceJS string, protoN int) error {
	var jnl *obs.Journal
	var record obs.Record
	if journal != "" || traceJS != "" {
		var tee []io.Writer
		if traceJS != "" {
			tee = append(tee, &record)
		}
		var err error
		if jnl, err = obs.OpenJournal(journal, tee...); err != nil {
			return err
		}
		defer jnl.Close()
	}
	// The run's trace context gives each simulation a span; the journal
	// keeps its lines untagged, as before.
	ctx := obs.WithJournal(obs.WithTrace(context.Background(), obs.NewTraceContext()), jnl)
	// Telemetry defaults on (stride 64) when a trace export will show it,
	// off otherwise; the nil Telemetry path costs the simulator nothing.
	if protoN == 0 && traceJS != "" {
		protoN = 64
	}
	if protoN < 0 {
		protoN = 0
	}
	reg := obs.NewRegistry()
	t, err := loadTrace(wl, traceIn, cpus, refs)
	if err != nil {
		return err
	}
	jnl.Event("run.start", "trace", t.Name, "cpus", t.CPUs, "refs", len(t.Refs),
		"schemes", schemes, "nospins", nospins, "check", check)
	if stats {
		fmt.Print(trace.ComputeStats(t))
	}
	var results []*sim.Result
	for _, scheme := range strings.Split(schemes, ",") {
		scheme = strings.TrimSpace(scheme)
		if scheme == "" {
			continue
		}
		src := trace.Source(t.Iterator())
		if nospins {
			src = trace.WithoutSpins(src)
		}
		p, err := core.NewByName(scheme, t.CPUs)
		if err != nil {
			return err
		}
		// A SimSpec names a spin filter (engine.FilterNoSpins) but not a
		// trace file or a kernel, so the CLI simulates directly, under a
		// span of its own.
		sctx, _ := obs.StartSpan(ctx)
		opts := sim.Options{Check: check}
		if protoN > 0 {
			opts.Telemetry = obs.NewProtoSampler(sctx, reg, scheme, protoN)
		}
		start := time.Now()
		res, err := sim.Simulate(p, src, opts)
		elapsed := time.Since(start)
		obs.EndSpan(sctx, "sim.run", start, err, "name", "simulate:"+scheme+"@"+t.Name, "refs", len(t.Refs))
		if err != nil {
			jnl.Error("error", err, "scheme", scheme, "trace", t.Name)
			return err
		}
		res.Trace = t.Name
		jnl.Event("simulate.finish", "scheme", res.Scheme, "trace", t.Name,
			"refs", res.Counts.Total, "dur_us", elapsed.Microseconds(),
			"cycles_per_ref", res.PerRef("pipelined"))
		results = append(results, res)
		printResult(res, events)
	}
	jnl.Event("run.finish", "schemes_run", len(results))
	if traceJS != "" {
		if err := obs.WriteChromeFile(traceJS, record.Bytes()); err != nil {
			return fmt.Errorf("tracejson: %w", err)
		}
	}
	if csvOut != "" {
		w := os.Stdout
		if csvOut != "-" {
			f, err := os.Create(csvOut)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		return sim.WriteCSV(w, results)
	}
	return nil
}

func printResult(res *sim.Result, events bool) {
	fmt.Printf("== %s over %s ==\n", res.Scheme, res.Trace)
	if events {
		fmt.Print(res.Counts.String())
	}
	fmt.Printf("  rd-miss %.3f%%  wr-miss %.3f%%  data-miss(incl first) %.3f%%\n",
		res.Counts.ReadMisses(), res.Counts.WriteMisses(), res.Counts.DataMissRate())
	for _, name := range []string{"pipelined", "non-pipelined"} {
		if tl := res.Tally(name); tl != nil {
			fmt.Printf("  %-13s %.4f cycles/ref  (%.4f txn/ref, %.2f cycles/txn)\n",
				name, tl.PerRef(), tl.TransactionsPerRef(), tl.PerTransaction())
		}
	}
	if res.InvalClean.Total() > 0 {
		fmt.Printf("  writes to clean blocks: %.1f%% invalidate <=1 cache (mean %.2f)\n",
			res.InvalClean.PctAtMost(1), res.InvalClean.Mean())
	}
	fmt.Println()
}

func loadTrace(wl, traceIn string, cpus, refs int) (*trace.Trace, error) {
	if traceIn != "" {
		f, err := os.Open(traceIn)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.ReadBinary(f)
	}
	if cfg, err := workload.Named(wl, cpus, refs); err == nil {
		return workload.Generate(cfg)
	}
	switch strings.ToLower(wl) {
	case "pingpong":
		return workload.PingPong(refs), nil
	case "migratory":
		return workload.Migratory(cpus, 8, refs/16), nil
	case "prodcons":
		return workload.ProducerConsumer(cpus, 16, refs/(16*cpus)), nil
	case "readshared":
		return workload.ReadShared(cpus, 64, refs/(64*cpus)), nil
	case "private":
		return workload.Private(cpus, 256, refs), nil
	case "spincontend":
		return workload.SpinContention(cpus, refs/(8*cpus), 8), nil
	}
	return nil, fmt.Errorf("unknown workload %q", wl)
}
