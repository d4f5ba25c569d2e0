package main

import (
	"fmt"

	"dirsim/internal/core"
	"dirsim/internal/event"
	"dirsim/internal/sim"
	"dirsim/internal/trace"
	"dirsim/internal/workload"
)

// paperSchemes are the six schemes every workload sweeps, in the paper's
// Figure 2 order.
var paperSchemes = []string{"Dir1NB", "WTI", "Dir0B", "DirNNB", "Dir1B", "Dragon"}

// benchCPUs is the machine size of every generated trace (the paper's
// four-processor ATUM configuration).
const benchCPUs = 4

// standardConfigs returns the POPS/THOR/PERO generation configs at the
// given length, reseeded from the benchmark seed and an input index.
func standardConfigs(refs int, seed uint64, index int) []workload.Config {
	cfgs := workload.StandardConfigs(benchCPUs, refs)
	for i := range cfgs {
		cfgs[i].Seed = seedFor(cfgs[i].Seed, seed, index)
	}
	return cfgs
}

// simReplay replays materialized traces through sim.Simulate on one
// goroutine: the classic simulated-references-per-host-second figure.
// core, bus/event pricing and sim do all the work; generation is in
// set-up and engine, store, service and dist are bypassed.
type simReplay struct {
	traces []*trace.Trace
	want   [][]uint64 // oracle fingerprint per trace × scheme
}

func setupSimReplay(z sizes, seed uint64, _ string) (instance, error) {
	w := &simReplay{}
	for _, cfg := range standardConfigs(z.replayRefs, seed, 0) {
		t, err := workload.Generate(cfg)
		if err != nil {
			return nil, fmt.Errorf("sim_replay: generate %s: %w", cfg.Name, err)
		}
		w.traces = append(w.traces, t)
	}
	// The oracle pass runs the same 18 simulations the timed reps do,
	// through sim.SimulateTrace, so it doubles as the warm-up rep.
	for _, t := range w.traces {
		fps := make([]uint64, len(paperSchemes))
		for i, scheme := range paperSchemes {
			res, err := sim.SimulateTrace(scheme, t, sim.Options{})
			if err != nil {
				return nil, fmt.Errorf("sim_replay: oracle %s over %s: %w", scheme, t.Name, err)
			}
			fps[i] = res.Fingerprint()
		}
		w.want = append(w.want, fps)
	}
	return w, nil
}

func (w *simReplay) rep(r *run) error {
	r.timed(func() {
		for ti, t := range w.traces {
			for si, scheme := range paperSchemes {
				o := r.begin("op:" + scheme + "@" + t.Name)
				res, err := w.simulate(r.tr, scheme, t)
				o.end()
				if err == nil && res.Fingerprint() != w.want[ti][si] {
					err = fmt.Errorf("%s over %s: fingerprint %016x, oracle %016x",
						scheme, t.Name, res.Fingerprint(), w.want[ti][si])
				}
				o.done(int64(t.Len()), err)
			}
		}
	})
	return nil
}

// simulate is one op. Traced, the protocol core and the trace iterator
// are wrapped so every batch crossing into core and trace is a span;
// what remains of sim.Simulate's own span is pricing and accounting.
func (w *simReplay) simulate(tr *tracer, scheme string, t *trace.Trace) (*sim.Result, error) {
	id := tr.child("core.NewByName", layerCore)
	p, err := core.NewByName(scheme, t.CPUs)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	src := t.Iterator()
	if tr != nil {
		p = &tracedProtocol{Protocol: p, tr: tr}
		src = &tracedSource{BatchSource: trace.Batched(src), tr: tr}
	}
	defer tr.enter("sim.Simulate", layerSim)()
	res, err := sim.Simulate(p, src, sim.Options{})
	if err != nil {
		return nil, err
	}
	res.Trace = t.Name // as sim.SimulateTrace does; the fingerprint covers it
	return res, nil
}

// tracedProtocol times each batch the simulator hands to the core.
type tracedProtocol struct {
	core.Protocol
	tr *tracer
}

func (p *tracedProtocol) AccessBatch(refs []trace.Ref, out []event.Result) []event.Result {
	id := p.tr.child("core.AccessBatch", layerCore)
	out = core.AccessBatch(p.Protocol, refs, out)
	p.tr.end(id)
	return out
}

// tracedSource times each batch the simulator pulls from the trace.
type tracedSource struct {
	trace.BatchSource
	tr *tracer
}

func (s *tracedSource) NextBatch(buf []trace.Ref) int {
	id := s.tr.child("trace.NextBatch", layerTrace)
	n := s.BatchSource.NextBatch(buf)
	s.tr.end(id)
	return n
}

func (w *simReplay) digest() string {
	var all []uint64
	for _, fps := range w.want {
		all = append(all, fps...)
	}
	return fingerprintDigest(all)
}
