// Command bench is the repository's one repeatable benchmark: four
// fixed-work workloads, five gated end-to-end metrics and a per-layer
// ledger. README.md in this directory says why each workload exists,
// which layer it bypasses and how the metrics interact; BENCHMARK.json at
// the repository root is the machine-readable contract.
//
//	go run ./bench -workload sim_replay            # one workload, end-to-end metrics
//	go run ./bench -workload all -out runs.jsonl   # all four, one process each, records appended
//	go run ./bench -workload fleet_cold -trace 1   # traced run: the per-layer metrics
//	go run ./bench -compare parent.jsonl change.jsonl
//	go run ./bench -contract > BENCHMARK.json      # after editing a metric or workload table
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// procStart anchors setup_s: process start to first timed op.
var procStart = time.Now()

// stderr is where diagnostics go; the package test silences it.
var stderr io.Writer = os.Stderr

// options are the command's flags.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	out      string
	quick    bool
}

func main() {
	var o options
	var compare, contract bool
	flag.StringVar(&o.workload, "workload", "", "workload to run: sim_replay, paper_regen, service_warm, fleet_cold, or all (one process each)")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; 2 is the held-out seed for claims")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "nominal timed region; scales the fixed rep counts")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	flag.StringVar(&o.out, "out", "", "append the run's full record (environment, metrics, spans) to this file as one JSON line")
	flag.BoolVar(&o.quick, "quick", false, "tiny sizes: exercises every code path in seconds, measures nothing")
	flag.BoolVar(&compare, "compare", false, "compare two -out files: bench -compare parent.jsonl change.jsonl")
	flag.BoolVar(&contract, "contract", false, "print BENCHMARK.json as this package defines it")
	flag.Parse()
	// The harness always measures on every core the box has and records
	// the count; there is deliberately no flag for it.
	runtime.GOMAXPROCS(runtime.NumCPU())

	var err error
	switch {
	case contract:
		err = writeContract(os.Stdout)
	case compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two files")
		} else {
			err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	case o.workload == "all":
		err = runAll(o)
	default:
		err = runOne(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runAll runs every workload in a process of its own, so each starts
// with a fresh heap and reports its own set-up time and peak memory.
func runAll(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", strconv.FormatUint(o.seed, 10),
			"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(o.trace)}
		if o.out != "" {
			args = append(args, "-out", o.out)
		}
		if o.quick {
			args = append(args, "-quick")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
	}
	return nil
}

// record is everything one run measured; -out appends it as one line.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	Quick    bool   `json:"quick,omitempty"`
	Env      env    `json:"env"`

	Correct       bool                   `json:"correct"`
	Attempted     int                    `json:"attempted"`
	Failed        int                    `json:"failed"`
	ResultsDigest string                 `json:"results_digest"`
	Metrics       map[string]metricValue `json:"metrics"`
	// Info holds what is printed beside the metrics and never gated:
	// timed wall, ops/s, the all-ops mean and median figures, the
	// resident set's high-water mark, and op_p90_ms where the sample
	// count supports it.
	Info map[string]float64 `json:"info"`
	// OpMS is every successful op's latency in run order, so percentiles
	// can be recomputed and a disturbed stretch of a run can be seen.
	OpMS  []float64 `json:"op_ms"`
	Spans []span    `json:"spans,omitempty"`
}

// result is the contract's last stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func runOne(o options) error {
	w, ok := lookupWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	z := fullSizes
	if o.quick {
		z = quickSizes
	}
	rec, err := measure(w, z, o)
	if err != nil {
		return err
	}
	printRecord(os.Stdout, rec)
	if o.out != "" {
		if err := appendRecord(o.out, rec); err != nil {
			return err
		}
	}
	line, err := json.Marshal(result{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !rec.Correct {
		return fmt.Errorf("%s: incorrect results (%d of %d ops failed, digest %s)",
			w.name, rec.Failed, rec.Attempted, rec.ResultsDigest)
	}
	return nil
}

// measure sets the workload up, runs its timed reps and assembles the
// record. Untraced it yields the end-to-end metrics; traced it runs a
// sixth of the reps twice — once recording spans, once not, interleaved
// — and then the standalone layers phase, and yields the per-layer
// metrics.
func measure(w benchWorkload, z sizes, o options) (*record, error) {
	e, err := captureEnv()
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(e.TmpDir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.Remove(e.TmpDir) // succeeds only once no run is using it
	defer os.RemoveAll(tmp)

	inst, err := w.setup(z, o.seed, filepath.Join(tmp, "w"))
	if err != nil {
		return nil, err
	}
	// One collection after set-up, none forced inside the timed region.
	runtime.GC()
	setup := time.Since(procStart)

	reps := z.reps(w.name, o.seconds)
	rec := &record{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Quick: o.quick, ResultsDigest: inst.digest(), Info: map[string]float64{}}
	values := map[string]float64{}
	var main *run
	if o.trace == 0 {
		main = newRun(nil)
		for i := 0; i < reps; i++ {
			if err := inst.rep(main); err != nil {
				return nil, err
			}
		}
	} else {
		tr := newTracer()
		main = newRun(tr)
		plain := newRun(nil)
		for i := 0; i < (reps+5)/6; i++ {
			if err := inst.rep(plain); err != nil {
				return nil, err
			}
			if err := inst.rep(main); err != nil {
				return nil, err
			}
		}
		if err := tracedValues(values, tr, main, plain); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		rec.Spans = tr.spans
		if err := layersPhase(values, z, o.seed, filepath.Join(tmp, "l")); err != nil {
			return nil, fmt.Errorf("layers phase: %w", err)
		}
	}
	if len(main.opMS) == 0 {
		return nil, fmt.Errorf("%s: no op succeeded (%d attempted)", w.name, main.attempted())
	}
	e.finish()
	rec.Env = *e
	if o.trace == 0 {
		values["setup_s"] = setup.Seconds()
		values["refs_per_s"] = main.refsPerSecond()
		values["op_p50_ms"] = main.opP50MS()
		values["cpu_s"] = main.cpuSeconds()
		values["rss_mb"] = main.rssMB()
	} else {
		values["bench.steal_share"] = e.StealShare
	}

	rec.OpMS = main.opMS
	all := main.totals()
	rec.Info["timed_wall_s"] = all.wall.Seconds()
	rec.Info["ops"] = float64(len(main.opMS))
	rec.Info["ops_per_s"] = float64(len(main.opMS)) / all.wall.Seconds()
	rec.Info["all_ops.refs_per_s"] = float64(all.refs) / all.wall.Seconds()
	rec.Info["all_ops.op_p50_ms"] = median(main.opMS)
	rec.Info["all_ops.cpu_s"] = all.cpu.Seconds()
	rec.Info["peak_rss_mb"] = statusMB("VmHWM:")
	if p90, beyond := percentile(main.opMS, 90); beyond >= 10 {
		rec.Info["op_p90_ms"] = p90
	}
	for name, xs := range main.extra {
		rec.Info[name] = median(xs)
	}

	var missing []string
	rec.Metrics, missing = render(specsFor(o.trace), values)
	if len(missing) > 0 {
		return nil, fmt.Errorf("%s: metrics not measured: %v", w.name, missing)
	}
	rec.Attempted, rec.Failed = main.attempted(), main.failed
	rec.Correct = main.failed == 0 && digestMatches(w.name, o, rec.ResultsDigest)
	return rec, nil
}

// maxUnattributed is the closure tolerance: a traced run fails when the
// harness can charge more than this share of op wall to no layer.
const maxUnattributed = 0.05

// tracedValues fills the traced workload's own per-layer metrics: the
// ledger, the closure check and the tracing overhead.
func tracedValues(values map[string]float64, tr *tracer, traced, plain *run) error {
	l := tr.account()
	ops := float64(l.ops)
	values["ledger.op_ms"] = l.opWall.Seconds() * 1e3 / ops
	for _, layer := range ledgerLayers {
		values["ledger.ms_per_op."+layer] = l.selfTime[layer].Seconds() * 1e3 / ops
	}
	share := float64(l.unattributed) / float64(l.opWall)
	values["bench.unattributed_share"] = share
	values["bench.trace_overhead_ratio"] = traced.totals().wall.Seconds() / plain.totals().wall.Seconds()
	if share > maxUnattributed {
		return fmt.Errorf("ledger does not close: %.3f of op wall is charged to no layer", share)
	}
	return nil
}

// printRecord writes the human-readable form: every metric by name with
// its unit, then the ungated figures.
func printRecord(w io.Writer, rec *record) {
	fmt.Fprintf(w, "%s seed=%d seconds=%d trace=%d  cpus=%d gomaxprocs=%d %s rev=%s tmp=%s load=%s\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Env.NumCPU, rec.Env.GOMAXPROCS,
		rec.Env.GoVersion, rec.Env.Revision, rec.Env.TmpFS, rec.Env.LoadAvg)
	for _, s := range specsFor(rec.Trace) {
		fmt.Fprintf(w, "  %-34s %16.4f %s\n", s.Name, rec.Metrics[s.Name].Value, s.Unit)
	}
	names := make([]string, 0, len(rec.Info))
	for name := range rec.Info {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  (%s = %.4f)\n", name, rec.Info[name])
	}
	fmt.Fprintf(w, "  ops attempted %d, failed %d, results_digest %s, steal_share %.4f",
		rec.Attempted, rec.Failed, rec.ResultsDigest, rec.Env.StealShare)
	if rec.Env.Disturbed {
		fmt.Fprint(w, "  DISTURBED")
	}
	fmt.Fprintln(w)
}

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
