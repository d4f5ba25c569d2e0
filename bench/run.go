package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"syscall"
	"time"
)

// sizes fixes how much work each workload does. Work is a constant of
// the sizes and -seconds, never of how fast the box is, so op counts and
// simulated statistics repeat exactly and cpu_s is comparable across
// commits.
type sizes struct {
	replayRefs             int // sim_replay: references per materialized trace
	regenRefs              int // paper_regen: references per generated trace
	warmSweeps, warmRefs   int // service_warm: sweeps in the store, references per trace
	fleetSweeps, fleetRefs int // fleet_cold: sweeps per rep, references per trace
	// layers phase: micro-benchmark trace length, engine sweep trace
	// length, sweeps in its service and fleet runs, minimum time per
	// micro-benchmark.
	layerRefs, layerCompRefs, layerSweeps int
	layerMin                              time.Duration
	// reps20 is each workload's rep count for a 20-second timed region on
	// the 2-core reference box (see README.md); -seconds scales it.
	reps20 map[string]int
}

var fullSizes = sizes{
	replayRefs: 2_000_000,
	regenRefs:  200_000,
	warmSweeps: 64, warmRefs: 50_000,
	fleetSweeps: 8, fleetRefs: 200_000,
	layerRefs: 500_000, layerCompRefs: 200_000, layerSweeps: 4,
	layerMin: 250 * time.Millisecond,
	reps20:   map[string]int{"sim_replay": 10, "paper_regen": 13, "service_warm": 60, "fleet_cold": 16},
}

// quickSizes keeps every code path and shrinks every count; the package
// test runs all four workloads with them in a few seconds.
var quickSizes = sizes{
	replayRefs: 20_000,
	regenRefs:  4_000,
	warmSweeps: 3, warmRefs: 4_000,
	fleetSweeps: 2, fleetRefs: 4_000,
	layerRefs: 20_000, layerCompRefs: 4_000, layerSweeps: 1,
	layerMin: time.Millisecond,
	reps20:   map[string]int{"sim_replay": 2, "paper_regen": 2, "service_warm": 2, "fleet_cold": 2},
}

func (z sizes) reps(workload string, seconds int) int {
	n := (z.reps20[workload]*seconds + 10) / 20
	if n < 2 {
		n = 2
	}
	return n
}

// benchWorkload is one of the benchmark's fixed-work input sets.
type benchWorkload struct {
	name string
	// why is the one-line reason the workload exists, as BENCHMARK.json
	// records it; README.md has the long form.
	why string
	// setup builds the inputs from seed, computes the correctness oracle
	// and runs one untimed warm-up rep. Everything it does lands in
	// setup_s.
	setup func(z sizes, seed uint64, tmp string) (instance, error)
}

// instance is a set-up workload ready to run reps.
type instance interface {
	// rep runs one repetition: untimed start-up, the rep's ops (each
	// bracketed by r.begin/op.end), untimed teardown and result checks.
	rep(r *run) error
	// digest identifies the oracle's results: equal digests mean every
	// simulated statistic the workload delivers is bit-identical.
	digest() string
}

var workloads = []benchWorkload{
	{name: "sim_replay", setup: setupSimReplay,
		why: "materialized traces replayed through sim.Simulate for six schemes on one goroutine: core and pricing do all the work; generation, engine, store, service and fleet are bypassed"},
	{name: "paper_regen", setup: setupPaperRegen,
		why: "all 26 paper experiments on a fresh engine under the Parallel executor: generation, engine scheduling and caching, sim and report on every core; no store, HTTP or fleet"},
	{name: "service_warm", setup: setupServiceWarm,
		why: "a restarted service answers 64 stored sweeps over HTTP and SSE with zero simulations: admission, engine tier hits, store reads, JSON; core, sim and workload do nothing"},
	{name: "fleet_cold", setup: setupFleetCold,
		why: "never-seen sweeps through the service, a coordinator and two pull workers: lease, heartbeat and push plus worker-side generation and sim; the store is bypassed"},
}

func lookupWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// run accumulates the measurements of a workload's timed region, which
// is the sum of its op windows, rep by rep.
type run struct {
	tr *tracer // nil for untraced reps

	reps   []repSample
	opMS   []float64 // latency of each successful op, in run order
	failed int
	extra  map[string][]float64 // per-layer samples taken outside the op windows
}

// repSample is what one rep's op loop measured.
type repSample struct {
	wall  time.Duration // sum of the rep's op windows
	cpu   time.Duration // user+system CPU over the op loop
	refs  int64         // references whose results were delivered
	opMS  []float64     // latency of each successful op
	rssMB float64       // resident set when the op loop ended
}

func newRun(tr *tracer) *run { return &run{tr: tr, extra: map[string][]float64{}} }

func (r *run) attempted() int { return len(r.opMS) + r.failed }

// timed runs the op loop of one rep and takes the rep's CPU time and
// closing resident set. Ops recorded until the next call belong to it.
func (r *run) timed(loop func()) {
	r.reps = append(r.reps, repSample{})
	start := cpuTime()
	loop()
	rep := &r.reps[len(r.reps)-1]
	rep.cpu = cpuTime() - start
	rep.rssMB = statusMB("VmRSS:")
}

// totals sums the reps: the plain all-ops figures.
func (r *run) totals() (t repSample) {
	for _, rep := range r.reps {
		t.wall += rep.wall
		t.cpu += rep.cpu
		t.refs += rep.refs
	}
	return t
}

// perRep maps every rep that delivered something to one number.
func (r *run) perRep(f func(repSample) float64) []float64 {
	var xs []float64
	for _, rep := range r.reps {
		if len(rep.opMS) > 0 {
			xs = append(xs, f(rep))
		}
	}
	return xs
}

// The box this benchmark runs on is shared: interference arrives in
// bursts of seconds and can only slow a rep down (CALIBRATION.md shows
// the same op taking 43 to 91 ms within one run). So each timing metric
// is computed per rep and the run reports its fastest tenth of reps — the
// first decile of times, the ninth of rates — which moves with the code
// and far less with the neighbours. The all-ops mean and median are
// printed beside them, ungated.
const (
	fastTimes = 0.1
	fastRates = 0.9
)

// refsPerSecond is references delivered per second of op window, in the
// fastest tenth of reps.
func (r *run) refsPerSecond() float64 {
	return quantile(r.perRep(func(rep repSample) float64 {
		return float64(rep.refs) / rep.wall.Seconds()
	}), fastRates)
}

// opP50MS is a rep's median op latency, in the fastest tenth of reps.
func (r *run) opP50MS() float64 {
	return quantile(r.perRep(func(rep repSample) float64 { return median(rep.opMS) }), fastTimes)
}

// cpuSeconds is the CPU time of the whole timed region had every rep
// cost what the fastest tenth did.
func (r *run) cpuSeconds() float64 {
	cpu := r.perRep(func(rep repSample) float64 { return rep.cpu.Seconds() })
	return quantile(cpu, fastTimes) * float64(len(cpu))
}

// rssMB is the resident set at the end of a rep, median over reps: the
// footprint the workload settles at. The high-water mark is printed
// beside it, ungated: it is set by one garbage-collection cycle running
// late and does not repeat.
func (r *run) rssMB() float64 {
	return median(r.perRep(func(rep repSample) float64 { return rep.rssMB }))
}

// op is one in-flight operation.
type op struct {
	r     *run
	root  int
	start time.Time
	dur   time.Duration
}

func (r *run) begin(name string) *op {
	o := &op{r: r, root: r.tr.beginOp(name)}
	o.start = time.Now()
	return o
}

// end closes the op's window; verification of what it returned happens
// after this, outside the timed region.
func (o *op) end() {
	o.dur = time.Since(o.start)
	o.r.tr.endOp(o.root)
}

// done records the op. A failed op (err != nil) counts as attempted and
// contributes no latency sample and no references.
func (o *op) done(refs int64, err error) {
	r := o.r
	rep := &r.reps[len(r.reps)-1]
	rep.wall += o.dur
	if err != nil {
		r.failed++
		if r.failed <= 5 { // enough to diagnose; a broken build fails every op
			fmt.Fprintf(stderr, "bench: op failed: %v\n", err)
		}
		return
	}
	rep.refs += refs
	rep.opMS = append(rep.opMS, float64(o.dur)/1e6)
	r.opMS = append(r.opMS, float64(o.dur)/1e6)
}

// overhead times a step that is outside the op windows (service start,
// drain) and keeps its milliseconds as a per-layer sample.
func (r *run) overhead(name string, f func() error) error {
	start := time.Now()
	err := f()
	r.sample(name+"_ms", float64(time.Since(start))/1e6)
	return err
}

// sample keeps one per-layer measurement taken outside the op windows.
func (r *run) sample(name string, v float64) { r.extra[name] = append(r.extra[name], v) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// fingerprintDigest folds result fingerprints, in order, into one digest.
func fingerprintDigest(fps []uint64) string {
	h := sha256.New()
	for _, fp := range fps {
		fmt.Fprintf(h, "%016x\n", fp)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// seedFor derives a workload generator seed from the profile's own seed,
// the benchmark seed and a per-input index, so every (seed, index) pair
// names a distinct, reproducible trace.
func seedFor(base, seed uint64, index int) uint64 {
	x := base ^ (seed+1)*0x9E3779B97F4A7C15 ^ uint64(index+1)*0xC2B2AE3D27D4EB4F
	x ^= x >> 31
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 29
	if x == 0 {
		x = 1 // the service treats seed 0 as "profile default"
	}
	return x
}
