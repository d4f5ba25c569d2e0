// Package dirsim is a trace-driven simulator for evaluating directory
// schemes for cache coherence, reproducing Agarwal, Simoni, Hennessy and
// Horowitz, "An Evaluation of Directory Schemes for Cache Coherence"
// (ISCA 1988).
//
// The package is a thin facade over the implementation packages; the types
// it returns are aliases, so everything reachable from here is usable by
// callers:
//
//   - workloads: synthetic multiprocessor traces modelled on the paper's
//     POPS / THOR / PERO applications (GenerateWorkload, POPS, THOR,
//     PERO), microkernels with exactly known sharing (PingPong,
//     Migratory, ...), and execution-driven traces from programs running
//     on a bundled mini-machine (VM, VMLockedCounter, ...)
//   - protocols: Dir1NB, DiriNB/DirNNB, Dir0B, DiriB, YenFu, the
//     coarse-vector directory, the finite-cache directory, and the snoopy
//     comparators WTI, Dragon, MESI, Berkeley, Firefly (NewScheme, which
//     also names the finite-cache directory, e.g. "FiniteDirNNB:64k2w",
//     and NewCoarseVector)
//   - simulation: event frequencies, invalidation histograms, bus cycles
//     per reference under the paper's pipelined and non-pipelined cost
//     models, interconnection-network pricing, and a bus-queueing timing
//     replay (Run, RunChecked, RunProtocol, SimulateContention)
//   - verification: per-read value-coherence checking on every engine
//     (RunChecked) and bounded-exhaustive model checking (VerifyScheme)
//   - experiments: every table and figure of the paper regenerated with
//     published values alongside (Experiments, NewExperimentContext)
//
// A minimal use:
//
//	t := dirsim.POPS(4, 1_000_000)
//	res, err := dirsim.Run("Dir0B", t)
//	if err != nil { ... }
//	fmt.Println(res.PerRef(dirsim.PipelinedModel))
package dirsim

import (
	"context"
	"fmt"
	"io"

	"dirsim/internal/bus"
	"dirsim/internal/contention"
	"dirsim/internal/core"
	"dirsim/internal/engine"
	"dirsim/internal/event"
	"dirsim/internal/network"
	"dirsim/internal/report"
	"dirsim/internal/sim"
	"dirsim/internal/trace"
	"dirsim/internal/verify"
	"dirsim/internal/vm"
	"dirsim/internal/workload"
)

// Core type surface, aliased from the implementation packages.
type (
	// Trace is a multiprocessor address trace.
	Trace = trace.Trace
	// Ref is one memory reference.
	Ref = trace.Ref
	// Source is a stream of references delivered in batches (NextBatch):
	// a Trace's Iterator, or a filter such as WithoutSpins over one. A
	// decoded trace file is a Trace, not a Source.
	Source = trace.Source
	// Protocol is a coherence state machine.
	Protocol = core.Protocol
	// Result carries everything measured in a simulation run.
	Result = sim.Result
	// Options configures a simulation run.
	Options = sim.Options
	// BusModel is a bus cost model.
	BusModel = bus.Model
	// EventCounts is a Table 4 event-frequency table.
	EventCounts = event.Counts
	// Experiment reproduces one paper table or figure.
	Experiment = report.Experiment
	// ExperimentContext supplies inputs to experiments.
	ExperimentContext = report.Context
	// WorkloadProfile parameterizes a synthetic application.
	WorkloadProfile = workload.Profile
	// WorkloadConfig names a profile instantiation.
	WorkloadConfig = workload.Config
)

// Names of the bus models priced by default in every Result.
const (
	PipelinedModel    = "pipelined"
	NonPipelinedModel = "non-pipelined"
)

// Pipelined returns the paper's pipelined (split-transaction) bus model.
func Pipelined() BusModel { return bus.Pipelined() }

// NonPipelined returns the paper's simple multiplexed bus model.
func NonPipelined() BusModel { return bus.NonPipelined() }

// NewScheme builds a protocol engine by name: Dir1NB, Dir0B, DirNNB, WTI,
// Dragon, Dir<i>B, Dir<i>NB, and DirNNB over finite caches,
// FiniteDirNNB:<size><b|k|m><ways>w (case-insensitive).
func NewScheme(name string, ncpu int) (Protocol, error) {
	return core.NewByName(name, ncpu)
}

// NewCoarseVector builds the Section 6 coarse-ternary-code directory
// protocol, DirCV.
func NewCoarseVector(ncpu int) Protocol {
	return core.NewCoarseVector(ncpu)
}

// Topology is an interconnection-network model for the Section 6
// scalability analysis.
type Topology = network.Topology

// Interconnect topologies for Options.Topologies / network pricing.
func BusTopology(n int) Topology       { return network.Bus(n) }
func CrossbarTopology(n int) Topology  { return network.Crossbar(n) }
func MeshTopology(w, h int) Topology   { return network.Mesh(w, h) }
func TorusTopology(w, h int) Topology  { return network.Torus(w, h) }
func HypercubeTopology(d int) Topology { return network.Hypercube(d) }
func RingTopology(n int) Topology      { return network.Ring(n) }

// Schemes lists the fixed scheme names accepted by NewScheme (the
// parameterized Dir<i>B / Dir<i>NB families are accepted in addition).
func Schemes() []string { return core.Schemes() }

// POPS, THOR and PERO generate the synthetic stand-ins for the paper's
// three application traces at the given machine size and length.
func POPS(cpus, refs int) *Trace { return workload.POPS(cpus, refs) }

// THOR generates the logic-simulator workload trace.
func THOR(cpus, refs int) *Trace { return workload.THOR(cpus, refs) }

// PERO generates the VLSI-router workload trace.
func PERO(cpus, refs int) *Trace { return workload.PERO(cpus, refs) }

// StandardTraces returns all three standard traces.
func StandardTraces(cpus, refs int) []*Trace { return workload.Standard(cpus, refs) }

// GenerateWorkload builds the workload workload.Named resolves name to
// (a paper trace such as "pops" or a microkernel such as "migratory"), or
// returns an error for unknown names. For full control use GenerateCustom.
func GenerateWorkload(name string, cpus, refs int) (*Trace, error) {
	cfg, err := workload.Named(name, cpus, refs)
	if err != nil {
		return nil, fmt.Errorf("dirsim: %w", err)
	}
	return workload.Generate(cfg)
}

// GenerateCustom builds a trace from an arbitrary profile configuration.
func GenerateCustom(cfg WorkloadConfig) (*Trace, error) { return workload.Generate(cfg) }

// POPSConfig, THORConfig and PEROConfig return the generation specs of
// the standard workloads without materializing them — the currency of
// the execution engine, which generates a spec on demand and caches by
// its content hash.
func POPSConfig(cpus, refs int) WorkloadConfig { return workload.POPSConfig(cpus, refs) }

// THORConfig returns the logic-simulator workload's generation spec.
func THORConfig(cpus, refs int) WorkloadConfig { return workload.THORConfig(cpus, refs) }

// PEROConfig returns the VLSI-router workload's generation spec.
func PEROConfig(cpus, refs int) WorkloadConfig { return workload.PEROConfig(cpus, refs) }

// StandardWorkloadConfigs returns all three standard specs in paper order.
func StandardWorkloadConfigs(cpus, refs int) []WorkloadConfig {
	return workload.StandardConfigs(cpus, refs)
}

// Run simulates the named scheme over the trace, pricing the run under
// both of the paper's bus models.
func Run(scheme string, t *Trace) (*Result, error) {
	return sim.SimulateTrace(scheme, t, sim.Options{})
}

// RunChecked is Run with value-coherence checking enabled: every read is
// verified to observe the most recently written value. Slower; returns an
// error on any coherence violation.
func RunChecked(scheme string, t *Trace) (*Result, error) {
	return sim.SimulateTrace(scheme, t, sim.Options{Check: true})
}

// RunProtocol simulates an already-constructed engine over a source.
func RunProtocol(p Protocol, src Source, opts Options) (*Result, error) {
	return sim.Simulate(p, src, opts)
}

// WriteResultsCSV exports results as CSV for plotting or regression
// tracking.
func WriteResultsCSV(w io.Writer, results []*Result) error {
	return sim.WriteCSV(w, results)
}

// ContentionStats reports a bus-queueing timing replay.
type ContentionStats = contention.Stats

// ContentionConfig parameterizes the timing replay.
type ContentionConfig = contention.Config

// SimulateContention replays the named scheme over the trace with bus
// queueing (the Section 5 system estimate made queue-aware). It returns
// the timing statistics and the number of bus transactions.
func SimulateContention(scheme string, t *Trace, cfg ContentionConfig) (ContentionStats, int64, error) {
	return contention.RunScheme(scheme, t, cfg)
}

// PaperContentionConfig returns the paper's Section 5 system parameters
// (0.5 think cycles per reference, pipelined bus).
func PaperContentionConfig() ContentionConfig { return contention.PaperConfig() }

// Execution-driven tracing: a small multiprocessor machine whose
// programs emit traces as they run (the paper's stated future work).
type (
	// VM executes one program per CPU against shared memory.
	VM = vm.Machine
	// VMProgram is an assembled program for the mini-machine.
	VMProgram = vm.Program
	// VMMemory is the machine's shared memory image.
	VMMemory = vm.Memory
	// VMWord is the machine word.
	VMWord = vm.Word
)

// VMLockedCounter, VMBarrier and VMReduce build the bundled parallel
// programs (see internal/vm for their memory-layout contracts).
func VMLockedCounter(iters VMWord) *VMProgram  { return vm.LockedCounter(iters) }
func VMBarrier(cpus, rounds VMWord) *VMProgram { return vm.Barrier(cpus, rounds) }
func VMReduce(cpus, n VMWord) *VMProgram       { return vm.Reduce(cpus, n) }

// VMInitReduceMemory seeds the input array for VMReduce.
func VMInitReduceMemory(n VMWord) VMMemory { return vm.InitReduceMemory(n) }

// Conformance runs the standard correctness battery against a protocol
// implementation: bounded-exhaustive model checking, the value-checked
// microkernels, and a full value-checked application trace. A new engine
// should pass this before being trusted in experiments.
func Conformance(factory func(ncpu int) Protocol) error {
	return verify.Battery(factory)
}

// VerifyConfig bounds an exhaustive protocol exploration.
type VerifyConfig = verify.Config

// VerifyScheme model-checks the named scheme: every interleaving of reads
// and writes within the bounds is executed with value-coherence checking.
// It returns the number of schedules explored; a violation comes back as
// an error naming the failing schedule.
func VerifyScheme(scheme string, ncpu int, cfg VerifyConfig) (int64, error) {
	factory := func() Protocol {
		p, err := core.NewByName(scheme, ncpu)
		if err != nil {
			panic(err)
		}
		return p
	}
	res, err := verify.Explore(factory, cfg)
	return res.Schedules, err
}

// Experiments returns the paper-reproduction experiments in paper order.
func Experiments() []Experiment { return report.Experiments() }

// NewExperimentContext builds the shared input set for experiments: refs
// per generated trace and the headline machine size (the paper used 4).
func NewExperimentContext(refs, cpus int) *ExperimentContext {
	return report.NewContext(refs, cpus)
}

// Execution engine: experiments expressed as DAGs of jobs (trace
// generation → per-scheme simulation → aggregation) run on a bounded
// worker pool with content-addressed caching of traces and results.
type (
	// Engine schedules simulation jobs and owns the result caches.
	Engine = engine.Engine
	// EngineOptions configures a new engine (retries, tracing, cache
	// tiers); the pool size belongs to the executor.
	EngineOptions = engine.Options
	// EngineStats snapshots an engine's cache and execution counters.
	EngineStats = engine.Stats
	// Executor is a DAG execution strategy (sequential or parallel).
	Executor = engine.Executor
	// SimSpec identifies one simulation for batch submission: workload
	// config × scheme × options, content-hashed for caching.
	SimSpec = engine.SimSpec
)

// NewEngine builds an execution engine; the zero options are ready to use.
func NewEngine(opts EngineOptions) *Engine { return engine.New(opts) }

// SequentialExecutor runs one job body at a time — the reference that
// concurrency is asserted against.
func SequentialExecutor() Executor { return engine.Sequential{} }

// ParallelExecutor runs jobs concurrently on a worker pool of the given
// size (0 = all cores).
func ParallelExecutor(workers int) Executor { return engine.Parallel{Workers: workers} }

// RunSchemes simulates several schemes over one workload configuration,
// generating the trace once and replaying it through the simulators
// concurrently. It returns each scheme's result; use an explicit Engine
// (NewEngine + Engine.Merge, one group of SimSpecs per scheme) to keep a
// result cache across calls.
func RunSchemes(schemes []string, cfg WorkloadConfig) (map[string]*Result, error) {
	eng := engine.New(engine.Options{})
	return eng.Compare(context.Background(), engine.Parallel{}, schemes,
		[]workload.Config{cfg}, false)
}

// NewParallelExperimentContext is NewExperimentContext backed by a
// concurrent engine with the given worker count (0 = all cores):
// experiments submitted through it run their independent simulations in
// parallel while producing results identical to the serial context.
func NewParallelExperimentContext(refs, cpus, workers int) *ExperimentContext {
	return report.NewContextWith(refs, cpus,
		engine.New(engine.Options{}), engine.Parallel{Workers: workers})
}

// WithoutSpins filters lock-test spin reads out of a source, the
// Section 5.2 experiment.
func WithoutSpins(src Source) Source { return trace.WithoutSpins(src) }

// Microkernel traces with exactly known sharing behaviour, useful for
// studying how each protocol responds to a single access pattern.

// PingPong alternates read+write turns on one block between two CPUs.
func PingPong(refs int) *Trace { return workload.PingPong(refs) }

// Migratory passes a read-modify-write region around the CPUs.
func Migratory(cpus, regionBlocks, rounds int) *Trace {
	return workload.Migratory(cpus, regionBlocks, rounds)
}

// ProducerConsumer has CPU 0 write a buffer that all other CPUs read.
func ProducerConsumer(cpus, bufferBlocks, rounds int) *Trace {
	return workload.ProducerConsumer(cpus, bufferBlocks, rounds)
}

// ReadShared has every CPU repeatedly read a region written once.
func ReadShared(cpus, regionBlocks, rounds int) *Trace {
	return workload.ReadShared(cpus, regionBlocks, rounds)
}

// SpinContention distills the POPS/THOR lock behaviour: one CPU works
// under a lock while the others spin on it.
func SpinContention(cpus, rounds, csLen int) *Trace {
	return workload.SpinContention(cpus, rounds, csLen)
}

// Private generates a workload with no sharing at all: every CPU touches
// only its own blocks.
func Private(cpus, blocksPerCPU, refs int) *Trace {
	return workload.Private(cpus, blocksPerCPU, refs)
}
