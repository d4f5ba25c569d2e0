// Package contention adds what the paper's bus-cycles metric deliberately
// leaves out: queueing. The paper's Section 5 estimate ("15 effective
// processors") divides bus capacity by average demand, an optimistic bound
// because processors stall while the bus serves others. This package
// replays a protocol's event stream through a first-order timing
// simulation — each processor alternates think time and bus transactions,
// the bus serves one transaction at a time — and reports the achieved
// utilization, waiting time, and effective parallelism.
//
// Arbitration follows trace order: the trace's fine-grained interleaving
// stands in for arrival order, which is exact when processors proceed at
// similar rates and first-order otherwise (the same spirit as the paper's
// other models).
package contention

import (
	"fmt"

	"dirsim/internal/bus"
	"dirsim/internal/core"
	"dirsim/internal/event"
	"dirsim/internal/trace"
)

// Config parameterizes the timing model. All times are in bus cycles.
type Config struct {
	// ThinkCycles is the processor time per memory reference that does
	// not use the bus (cache hit plus pipeline work). The paper's
	// system — a 10-MIPS processor against a 100ns bus, two references
	// per instruction — gives 0.5 bus cycles per reference.
	ThinkCycles float64
	// Model prices each reference's bus occupancy.
	Model bus.Model
}

// PaperConfig returns the Section 5 system: 0.5 think cycles per
// reference on the pipelined bus.
func PaperConfig() Config {
	return Config{ThinkCycles: 0.5, Model: bus.Pipelined()}
}

// Stats reports the outcome of a contention simulation.
type Stats struct {
	// CPUs is the machine size; Refs the references replayed.
	CPUs int
	Refs int64
	// Span is the makespan: the time the last processor finishes.
	Span float64
	// BusBusy is the total time the bus was held; Utilization is
	// BusBusy / Span.
	BusBusy float64
	// Wait is total processor time spent queued for the bus.
	Wait float64
	// AloneTime is the summed per-processor completion time had each
	// run with a private bus (no queueing).
	AloneTime float64
}

// Utilization returns the bus duty cycle over the run.
func (s Stats) Utilization() float64 {
	if s.Span == 0 {
		return 0
	}
	return s.BusBusy / s.Span
}

// EffectiveProcessors returns the achieved parallelism: the work of
// AloneTime compressed into Span. It equals CPUs when the bus never
// queues and degrades toward bus-bound throughput as it saturates.
func (s Stats) EffectiveProcessors() float64 {
	if s.Span == 0 {
		return 0
	}
	return s.AloneTime / s.Span
}

// String summarizes the run.
func (s Stats) String() string {
	return fmt.Sprintf("%d CPUs: span %.0f cycles, bus %.1f%% busy, %.2f effective processors",
		s.CPUs, s.Span, 100*s.Utilization(), s.EffectiveProcessors())
}

// batchRefs is how many references Simulate classifies per AccessBatch.
const batchRefs = 4096

// Simulate replays the trace through the protocol with the timing model.
// The protocol engine must match the trace's CPU count (as in sim). The
// trace is classified a batch at a time into one reused buffer; think time
// is still added per reference in trace order, because a float sum depends
// on its order, but pricing and queueing run only for results that are not
// Plain — those cost nothing under any model, so none is a transaction.
func Simulate(t *trace.Trace, p core.Protocol, cfg Config) (Stats, int64, error) {
	if t.CPUs > p.CPUs() {
		return Stats{}, 0, fmt.Errorf("contention: trace has %d CPUs, engine %d", t.CPUs, p.CPUs())
	}
	if cfg.ThinkCycles < 0 {
		return Stats{}, 0, fmt.Errorf("contention: negative think time")
	}
	stats := Stats{CPUs: t.CPUs, Refs: int64(len(t.Refs))}
	clock := make([]float64, t.CPUs) // per-CPU local time
	alone := make([]float64, t.CPUs) // per-CPU time with a private bus
	var busFree float64              // when the bus next becomes idle
	var transactions int64
	outs := make([]event.Result, 0, min(batchRefs, len(t.Refs)))
	for off := 0; off < len(t.Refs); off += batchRefs {
		refs := t.Refs[off:min(off+batchRefs, len(t.Refs))]
		for i := range refs { // a hand-built or file-loaded trace can break its header's promise
			if c := refs[i].CPU; int(c) >= t.CPUs {
				return Stats{}, 0, fmt.Errorf("contention: reference %d: cpu %d outside the trace's %d CPUs", off+i, c, t.CPUs)
			}
		}
		outs = core.AccessBatch(p, refs, outs[:0])
		for i := range outs {
			c := refs[i].CPU
			clock[c] += cfg.ThinkCycles
			alone[c] += cfg.ThinkCycles
			if outs[i].Plain() {
				continue
			}
			cost, txn := cfg.Model.Cost(outs[i])
			if !txn {
				continue
			}
			transactions++
			d := cost.Total()
			alone[c] += d
			req := clock[c]
			start := max(req, busFree)
			stats.Wait += start - req
			clock[c] = start + d
			busFree = start + d
			stats.BusBusy += d
		}
	}
	for c := 0; c < t.CPUs; c++ {
		stats.Span = max(stats.Span, clock[c])
		stats.AloneTime += alone[c]
	}
	return stats, transactions, nil
}

// RunScheme is a convenience wrapper: build the named scheme for the
// trace and simulate under the configuration.
func RunScheme(scheme string, t *trace.Trace, cfg Config) (Stats, int64, error) {
	p, err := core.NewByName(scheme, t.CPUs)
	if err != nil {
		return Stats{}, 0, err
	}
	return Simulate(t, p, cfg)
}
