// Command tracegen generates, converts, and inspects multiprocessor
// address traces.
//
// Usage:
//
//	tracegen -workload pops -cpus 4 -refs 1000000 -o pops.trc
//	tracegen -inspect pops.trc
//	tracegen -workload thor -format text -o thor.txt
//	tracegen -convert pops.trc -format text -o pops.txt
//
// -journal streams structured JSONL events bracketing the run
// (run.start / generate.finish or convert.finish / run.finish) to a file
// or stderr, matching the journals the other commands emit.
package main

import (
	"flag"
	"fmt"
	"os"

	"dirsim/internal/obs"
	"dirsim/internal/trace"
	"dirsim/internal/workload"
)

func main() {
	var (
		wl      = flag.String("workload", "", "workload to generate: pops, thor, pero")
		cpus    = flag.Int("cpus", 4, "processor count")
		refs    = flag.Int("refs", 1_000_000, "approximate trace length")
		seed    = flag.Uint64("seed", 0, "override the workload's fixed seed (0 keeps it)")
		out     = flag.String("o", "", "output file (default stdout)")
		format  = flag.String("format", "binary", "output format: binary or text")
		inspect = flag.String("inspect", "", "print statistics for a binary trace file and exit")
		convert = flag.String("convert", "", "read a binary trace file instead of generating")
		journal = flag.String("journal", "", "write a JSONL run journal to this file ('-' or 'stderr' for standard error)")
		showVer = flag.Bool("version", false, "print build version and exit")
	)
	flag.Parse()
	if *showVer {
		fmt.Println("tracegen", obs.Build())
		return
	}
	if err := run(*wl, *cpus, *refs, *seed, *out, *format, *inspect, *convert, *journal); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(wl string, cpus, refs int, seed uint64, out, format, inspect, convert, journal string) error {
	var jnl *obs.Journal
	if journal != "" {
		var err error
		if jnl, err = obs.OpenJournal(journal); err != nil {
			return err
		}
		defer jnl.Close()
	}
	jnl.Event("run.start", "workload", wl, "cpus", cpus, "refs", refs,
		"inspect", inspect, "convert", convert, "format", format)
	if inspect != "" {
		t, err := readTrace(inspect)
		if err != nil {
			jnl.Error("error", err, "inspect", inspect)
			return err
		}
		if err := t.Validate(); err != nil {
			jnl.Error("error", err, "inspect", inspect)
			return err
		}
		fmt.Print(trace.ComputeStats(t))
		jnl.Event("run.finish", "trace", t.Name, "refs", t.Len())
		return nil
	}
	var t *trace.Trace
	switch {
	case convert != "":
		var err error
		if t, err = readTrace(convert); err != nil {
			jnl.Error("error", err, "convert", convert)
			return err
		}
		jnl.Event("convert.finish", "trace", t.Name, "refs", t.Len())
	case wl != "":
		cfg, err := workloadConfig(wl, cpus, refs, seed)
		if err != nil {
			jnl.Error("error", err, "workload", wl)
			return err
		}
		if t, err = workload.Generate(cfg); err != nil {
			jnl.Error("error", err, "workload", wl)
			return err
		}
		jnl.Event("generate.finish", "trace", t.Name, "refs", t.Len(), "seed", cfg.Seed)
	default:
		err := fmt.Errorf("nothing to do: pass -workload, -convert, or -inspect")
		jnl.Error("error", err)
		return err
	}
	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			jnl.Error("error", err, "out", out)
			return err
		}
		defer f.Close()
		w = f
	}
	var err error
	switch format {
	case "binary":
		err = trace.WriteBinary(w, t)
	case "text":
		err = trace.WriteText(w, t)
	default:
		err = fmt.Errorf("unknown format %q (want binary or text)", format)
	}
	if err != nil {
		jnl.Error("error", err, "format", format)
		return err
	}
	jnl.Event("run.finish", "trace", t.Name, "refs", t.Len(), "out", out)
	return nil
}

// workloadConfig is the named paper workload's configuration, with seed
// replacing its fixed seed when non-zero.
func workloadConfig(wl string, cpus, refs int, seed uint64) (workload.Config, error) {
	cfg, err := workload.Named(wl, cpus, refs)
	if seed != 0 {
		cfg.Seed = seed
	}
	return cfg, err
}

func readTrace(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadBinary(f)
}
