// Command dirsim runs coherence schemes over a workload or a trace file
// and prints event frequencies and bus-cycle costs; it also writes,
// inspects and converts trace files.
//
// Usage:
//
//	dirsim -workload pops -cpus 4 -refs 500000 -schemes Dir1NB,WTI,Dir0B,Dragon
//	dirsim -trace trace.bin -schemes Dir0B
//	dirsim -workload pops -schemes "" -o p.bin              # generate
//	dirsim -trace p.bin -schemes "" -stats                  # inspect
//	dirsim -trace p.bin -schemes "" -o p.txt -format text   # convert
//
// Every input is a spec: a workload name resolves through workload.Named,
// a trace file is adopted by the engine (Engine.Adopt), and the schemes
// run as one Engine.Results batch. -journal streams the run.start /
// run.finish bracket around the engine's job lines and sim.run spans;
// -tracejson renders that journal as Chrome trace-event JSON for
// Perfetto.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dirsim/internal/core"
	"dirsim/internal/engine"
	"dirsim/internal/obs"
	"dirsim/internal/sim"
	"dirsim/internal/trace"
	"dirsim/internal/verify"
	"dirsim/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "dirsim:", err)
		os.Exit(1)
	}
}

// run is the command, writing to stdout unless a flag names a file.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("dirsim", flag.ContinueOnError)
	var (
		wl      = fs.String("workload", "pops", "workload name: pops, thor, pero, pingpong, migratory, prodcons, readshared, private, spincontend")
		traceIn = fs.String("trace", "", "read a trace file (binary or text) instead of generating a workload")
		cpus    = fs.Int("cpus", 4, "processor count for generated workloads")
		refs    = fs.Int("refs", 500000, "approximate trace length for generated workloads")
		seed    = fs.Uint64("seed", 0, "override a paper workload's fixed seed (0 keeps it; kernels take none)")
		schemes = fs.String("schemes", "Dir1NB,WTI,Dir0B,Dragon", "comma-separated scheme names ('' simulates none)")
		stats   = fs.Bool("stats", false, "print trace characteristics")
		events  = fs.Bool("events", false, "print the full event-frequency table per scheme")
		nospins = fs.Bool("nospins", false, "filter lock-test spin reads out of the trace first")
		check   = fs.Bool("check", false, "run with coherence checking enabled")
		csvOut  = fs.String("csv", "", "additionally write results as CSV to this file ('-' for stdout)")
		out     = fs.String("o", "", "write the input trace to this file ('-' for stdout)")
		format  = fs.String("format", "binary", "trace format for -o: binary or text")
		conform = fs.Bool("conformance", false, "run the full correctness battery (model check + kernels + application trace) on each scheme instead of a simulation")
		journal = fs.String("journal", "", "write a JSONL run journal to this file ('-' or 'stderr' for standard error)")
		traceJS = fs.String("tracejson", "", "export a Chrome trace-event JSON timeline to this file ('-' for stdout; load in Perfetto or chrome://tracing)")
		showVer = fs.Bool("version", false, "print build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *showVer:
		_, err := fmt.Fprintln(stdout, "dirsim", obs.Build())
		return err
	case *conform:
		return runConformance(stdout, *schemes)
	}
	writeTrace := map[string]func(io.Writer, *trace.Trace) error{
		"binary": trace.WriteBinary, "text": trace.WriteText}[*format]
	if writeTrace == nil {
		return fmt.Errorf("unknown format %q (want binary or text)", *format)
	}

	var jnl *obs.Journal
	var record obs.Record
	if *journal != "" || *traceJS != "" {
		var tee []io.Writer
		if *traceJS != "" {
			tee = append(tee, &record)
		}
		if jnl, err = obs.OpenJournal(*journal, 0, 0, tee...); err != nil {
			return err
		}
		defer jnl.Close()
		defer func() {
			if err != nil {
				jnl.Error("error", err)
			}
		}()
	}
	// The trace context gives every engine job and simulation a span.
	ctx := obs.WithJournal(obs.WithTrace(context.Background(), obs.NewTraceContext()), jnl)
	eng := engine.New(engine.Options{})

	cfg, err := workloadConfig(*wl, *cpus, *refs, *seed)
	if *traceIn != "" {
		cfg, err = adopt(eng, *traceIn)
	}
	if err != nil {
		return err
	}
	t, err := eng.Trace(ctx, cfg)
	if err != nil {
		return err
	}
	jnl.Event("run.start", "trace", t.Name, "cpus", t.CPUs, "refs", t.Len(), "seed", cfg.Seed,
		"schemes", *schemes, "nospins", *nospins, "check", *check)
	if *stats {
		fmt.Fprint(stdout, trace.ComputeStats(t))
	}
	if *out != "" {
		if err := writeTo(stdout, *out, func(w io.Writer) error { return writeTrace(w, t) }); err != nil {
			return err
		}
	}
	var specs []engine.SimSpec
	for _, scheme := range strings.Split(*schemes, ",") {
		if scheme = strings.TrimSpace(scheme); scheme != "" {
			spec := engine.SimSpec{Trace: cfg, Scheme: scheme, Check: *check}
			if *nospins {
				spec.Filter = engine.FilterNoSpins
			}
			specs = append(specs, spec)
		}
	}
	results, err := eng.Results(ctx, engine.Sequential{}, specs)
	if err != nil {
		return err
	}
	for _, res := range results {
		printResult(stdout, res, *events)
	}
	jnl.Event("run.finish", "schemes_run", len(results))
	if *traceJS != "" {
		if err := obs.WriteChromeFile(*traceJS, record.Bytes()); err != nil {
			return fmt.Errorf("tracejson: %w", err)
		}
	}
	if *csvOut != "" {
		return writeTo(stdout, *csvOut, func(w io.Writer) error { return sim.WriteCSV(w, results) })
	}
	return nil
}

// workloadConfig is the named workload's configuration, with a non-zero
// seed replacing its own (which a kernel's Config then fails to validate).
func workloadConfig(wl string, cpus, refs int, seed uint64) (workload.Config, error) {
	cfg, err := workload.Named(wl, cpus, refs)
	if seed != 0 {
		cfg.Seed = seed
	}
	return cfg, err
}

// adopt hands the engine a trace file and returns its Config. A file
// that opens with the binary format's magic is read as binary, any
// other as the text format -format text writes.
func adopt(eng *engine.Engine, path string) (workload.Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return workload.Config{}, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	read := trace.ReadText
	if magic, _ := br.Peek(4); string(magic) == "DSTR" {
		read = trace.ReadBinary
	}
	t, err := read(br)
	if err != nil {
		return workload.Config{}, err
	}
	return eng.Adopt(t)
}

// writeTo runs write on stdout when path is "-", else on a new file at
// path.
func writeTo(stdout io.Writer, path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(write(f), f.Close())
}

// runConformance runs the verification battery for each named scheme.
func runConformance(stdout io.Writer, schemes string) error {
	for _, scheme := range strings.Split(schemes, ",") {
		if scheme = strings.TrimSpace(scheme); scheme == "" {
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
		fmt.Fprintf(stdout, "%-8s PASS (model check + kernels + application trace)\n", scheme)
	}
	return nil
}

func printResult(w io.Writer, res *sim.Result, events bool) {
	fmt.Fprintf(w, "== %s over %s ==\n", res.Scheme, res.Trace)
	if events {
		fmt.Fprint(w, res.Counts.String())
	}
	fmt.Fprintf(w, "  rd-miss %.3f%%  wr-miss %.3f%%  data-miss(incl first) %.3f%%\n",
		res.Counts.ReadMisses(), res.Counts.WriteMisses(), res.Counts.DataMissRate())
	for _, name := range []string{"pipelined", "non-pipelined"} {
		if tl := res.Tally(name); tl != nil {
			fmt.Fprintf(w, "  %-13s %.4f cycles/ref  (%.4f txn/ref, %.2f cycles/txn)\n",
				name, tl.PerRef(), tl.TransactionsPerRef(), tl.PerTransaction())
		}
	}
	if res.InvalClean.Total() > 0 {
		fmt.Fprintf(w, "  writes to clean blocks: %.1f%% invalidate <=1 cache (mean %.2f)\n",
			res.InvalClean.PctAtMost(1), res.InvalClean.Mean())
	}
	fmt.Fprintln(w)
}
