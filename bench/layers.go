package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"dirsim/internal/core"
	"dirsim/internal/engine"
	"dirsim/internal/event"
	"dirsim/internal/report"
	"dirsim/internal/sim"
	"dirsim/internal/store"
	"dirsim/internal/trace"
	"dirsim/internal/workload"
)

// layerInput offsets the input index of the layers phase's traces, so
// they share nothing with the workloads' own inputs.
const layerInput = 1000

// layersPhase times each package's public entry points standalone, on
// one goroutine unless the entry point is itself parallel, and fills the
// per-layer metrics that do not come from the traced workload. It is the
// same whatever workload was traced: a traced run of any workload prints
// every per-layer metric.
func layersPhase(values map[string]float64, z sizes, seed uint64, tmp string) error {
	l := &layers{values: values, z: z, seed: seed}
	for _, step := range []func() error{
		l.workloadAndTrace, l.coreAndSim, l.engine, l.report,
		func() error { return l.store(tmp + "-store") },
		func() error { return l.service(tmp + "-service") },
		l.dist,
	} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

type layers struct {
	values map[string]float64
	z      sizes
	seed   uint64
	traces []*trace.Trace // pops, thor, pero at z.layerRefs
}

// each calls f until z.layerMin has passed, at least twice, and returns
// the median seconds per call.
func (l *layers) each(f func() error) (float64, error) {
	var secs []float64
	for start := time.Now(); len(secs) < 2 || time.Since(start) < l.z.layerMin; {
		t := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(t).Seconds())
	}
	return median(secs), nil
}

func (l *layers) workloadAndTrace() error {
	cfgs := standardConfigs(l.z.layerRefs, l.seed, layerInput)
	for _, cfg := range cfgs {
		var n int
		s, err := l.each(func() error {
			n = 0
			return workload.StreamBatches(cfg, workload.DefaultBatchRefs,
				func(b []trace.Ref) error { n += len(b); return nil })
		})
		if err != nil {
			return err
		}
		l.values["workload.gen_refs_per_s."+cfg.Name] = float64(n) / s
		t, err := workload.Generate(cfg)
		if err != nil {
			return err
		}
		l.traces = append(l.traces, t)
	}

	t := l.traces[0]
	var buf bytes.Buffer
	s, err := l.each(func() error { buf.Reset(); return trace.WriteBinary(&buf, t) })
	if err != nil {
		return err
	}
	l.values["trace.encode_refs_per_s"] = float64(t.Len()) / s
	l.values["trace.bytes_per_ref"] = float64(buf.Len()) / float64(t.Len())
	s, err = l.each(func() error {
		_, err := trace.ReadBinary(bytes.NewReader(buf.Bytes()))
		return err
	})
	if err != nil {
		return err
	}
	l.values["trace.decode_refs_per_s"] = float64(t.Len()) / s
	return nil
}

// coreAndSim measures classification alone (core.AccessBatch, no
// pricing) and the priced simulation (sim.Simulate) per scheme over the
// three traces, and reads the simulated statistics off the results.
func (l *layers) coreAndSim() error {
	var refs float64
	for _, t := range l.traces {
		refs += float64(t.Len())
	}
	var priceNS float64
	merged := map[string]*sim.Result{}
	var per []*sim.Result
	for _, scheme := range paperSchemes {
		out := make([]event.Result, 0, sim.DefaultBatchRefs)
		classify, err := l.each(func() error {
			for _, t := range l.traces {
				p, err := core.NewByName(scheme, t.CPUs)
				if err != nil {
					return err
				}
				for rest := t.Refs; len(rest) > 0; {
					n := min(len(rest), sim.DefaultBatchRefs)
					out = core.AccessBatch(p, rest[:n], out[:0])
					rest = rest[n:]
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		simulate, err := l.each(func() error {
			per = per[:0]
			for _, t := range l.traces {
				res, err := sim.SimulateTrace(scheme, t, sim.Options{})
				if err != nil {
					return err
				}
				per = append(per, res)
			}
			return nil
		})
		if err != nil {
			return err
		}
		l.values["core.classify_refs_per_s."+scheme] = refs / classify
		l.values["sim.simulate_refs_per_s."+scheme] = refs / simulate
		priceNS += (simulate - classify) * 1e9 / refs
		if merged[scheme], err = sim.Merge(per...); err != nil {
			return err
		}
		l.values["bus.cycles_per_ref."+scheme] = merged[scheme].PerRef("pipelined")
	}
	l.values["sim.price_ns_per_ref"] = priceNS / float64(len(paperSchemes))
	l.values["bus.dir0b_over_dragon"] = l.values["bus.cycles_per_ref.Dir0B"] / l.values["bus.cycles_per_ref.Dragon"]
	l.values["event.inval_at_most_one_pct"] = merged["Dir0B"].InvalClean.PctAtMost(1)

	merge, err := l.each(func() error { _, err := sim.Merge(per...); return err })
	if err != nil {
		return err
	}
	l.values["sim.merge_us"] = merge * 1e6

	// Sharded against sequential, alternating so both see the same box.
	t := l.traces[0]
	var seq, sharded []float64
	for start := time.Now(); len(seq) < 2 || time.Since(start) < 2*l.z.layerMin; {
		for _, shards := range []int{1, 2} {
			t0 := time.Now()
			if _, err := sim.SimulateTrace("Dir0B", t, sim.Options{Shards: shards}); err != nil {
				return err
			}
			if d := time.Since(t0).Seconds(); shards == 1 {
				seq = append(seq, d)
			} else {
				sharded = append(sharded, d)
			}
		}
	}
	l.values["sim.sharded_refs_per_s.2"] = float64(t.Len()) / median(sharded)
	l.values["sim.sharded_speedup.2"] = median(seq) / median(sharded)
	return nil
}

// engine measures a cold six-scheme sweep of the three workloads under
// both executors, alternating, against the same work done with no engine
// at all, and a fully cached batch.
func (l *layers) engine() error {
	ctx := context.Background()
	cfgs := standardConfigs(l.z.layerCompRefs, l.seed, layerInput+1)
	var specs []engine.SimSpec
	for _, cfg := range cfgs {
		for _, scheme := range paperSchemes {
			specs = append(specs, engine.SimSpec{Trace: cfg, Scheme: scheme})
		}
	}
	var seq, par []float64
	var warm *engine.Engine
	var refs int64
	for start := time.Now(); len(seq) < 2 || time.Since(start) < 2*l.z.layerMin; {
		for _, exec := range []engine.Executor{engine.Sequential{}, engine.Parallel{}} {
			warm = engine.New(engine.Options{})
			t0 := time.Now()
			if _, err := warm.Compare(ctx, exec, paperSchemes, cfgs, false); err != nil {
				return err
			}
			if d := time.Since(t0).Seconds(); exec.Name() == "sequential" {
				seq = append(seq, d)
			} else {
				par = append(par, d)
			}
			refs = warm.Stats().RefsSimulated
		}
	}
	l.values["engine.cold_refs_per_s.seq"] = float64(refs) / median(seq)
	l.values["engine.cold_refs_per_s.par"] = float64(refs) / median(par)
	l.values["engine.par_speedup"] = median(seq) / median(par)

	bare, err := l.each(func() error {
		for _, cfg := range cfgs {
			t, err := workload.Generate(cfg)
			if err != nil {
				return err
			}
			for _, scheme := range paperSchemes {
				if _, err := sim.SimulateTrace(scheme, t, sim.Options{}); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.values["engine.overhead_ratio"] = median(seq) / bare

	hit, err := l.each(func() error {
		_, err := warm.Results(ctx, engine.Sequential{}, specs)
		return err
	})
	if err != nil {
		return err
	}
	l.values["engine.mem_hit_us"] = hit * 1e6 / float64(len(specs))
	return nil
}

// report regenerates the paper once with the experiments one after
// another, so each experiment's time is its marginal cost after the
// earlier ones filled the engine's caches, and takes the engine's
// counters for that regeneration. The Parallel executor keeps streamed
// generation on the path.
func (l *layers) report() error {
	eng := engine.New(engine.Options{})
	ctx := report.NewContextWith(l.z.regenRefs, benchCPUs, eng, engine.Parallel{})
	for _, e := range report.Experiments() {
		t0 := time.Now()
		if _, err := ctx.RunExperiment(e); err != nil {
			return fmt.Errorf("report %s: %w", e.ID, err)
		}
		l.values["report.exp_ms."+e.ID] = time.Since(t0).Seconds() * 1e3
	}
	st := eng.Stats()
	l.values["report.cache_hit_ratio"] = float64(st.CacheHits) / float64(st.CacheHits+st.CacheMisses)
	l.values["engine.sims_run"] = float64(st.SimsRun)
	l.values["engine.cache_hits"] = float64(st.CacheHits)
	l.values["engine.traces_generated"] = float64(st.TracesGenerated)
	l.values["engine.stream_stalls"] = float64(st.StreamStalls)
	return nil
}

// store measures the durable tier's four operations and its open-time
// index scan on a directory of its own.
func (l *layers) store(dir string) error {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	t := l.traces[0]
	var results []*sim.Result
	for _, scheme := range paperSchemes {
		res, err := sim.SimulateTrace(scheme, t, sim.Options{})
		if err != nil {
			return err
		}
		results = append(results, res)
	}
	// Content keys are opaque to the store: 64 hex digits, as the
	// engine's are.
	key := func(i int) string { return fmt.Sprintf("%064x", i) }
	n := 0
	put, err := l.each(func() error {
		res := results[n%len(results)]
		n++
		return st.StoreResult(key(n), res, res.Fingerprint())
	})
	if err != nil {
		return err
	}
	l.values["store.put_result_us"] = put * 1e6
	i := 0
	get, err := l.each(func() error {
		i = i%n + 1
		if _, ok, err := st.LoadResult(key(i)); err != nil || !ok {
			return fmt.Errorf("store: result %d missing (%v)", i, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.values["store.get_result_us"] = get * 1e6

	fp := t.Fingerprint()
	put, err = l.each(func() error { return st.StoreTrace(key(0), t, fp) })
	if err != nil {
		return err
	}
	l.values["store.put_trace_refs_per_s"] = float64(t.Len()) / put
	get, err = l.each(func() error {
		if _, ok, err := st.LoadTrace(key(0)); err != nil || !ok {
			return fmt.Errorf("store: trace missing (%v)", err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.values["store.get_trace_refs_per_s"] = float64(t.Len()) / get
	open, err := l.each(func() error { _, err := store.Open(dir, store.Options{}); return err })
	if err != nil {
		return err
	}
	l.values["store.open_ms"] = open * 1e3
	return nil
}

// service runs service_warm at layer size, traced, and reads the three
// requests of the protocol and the service's start-up, drain, dedup and
// admission figures off it.
func (l *layers) service(dir string) error {
	z := l.z
	z.warmSweeps = z.layerSweeps
	inst, err := setupServiceWarm(z, l.seed+layerInput, dir)
	if err != nil {
		return err
	}
	tr := newTracer()
	r := newRun(tr)
	for i := 0; i < 3; i++ {
		if err := inst.rep(r); err != nil {
			return err
		}
	}
	if r.failed > 0 {
		return fmt.Errorf("service layer: %d of %d ops failed", r.failed, r.attempted())
	}
	spans := tr.account().byName
	l.values["service.submit_rtt_us"] = median(spans["http.submit"]) / 1e3
	l.values["service.events_wait_us"] = median(spans["http.events"]) / 1e3
	l.values["service.get_result_us"] = median(spans["http.get"]) / 1e3
	l.values["service.result_bytes"] = median(r.extra["service.result_bytes"])
	l.values["service.dedup_hit_us"] = median(r.extra["service.dedup_hit_ms"]) * 1e3
	l.values["service.admission_wait_us"] = median(r.extra["service.admission_wait_us"])
	l.values["service.start_ms"] = median(r.extra["service.start_ms"])
	l.values["service.drain_ms"] = median(r.extra["service.drain_ms"])
	// The store as the warm service used it, per rep: every spec a hit.
	l.values["store.hits"] = median(r.extra["store.hits"])
	l.values["store.rejected"] = median(r.extra["store.rejected"])
	return nil
}

// dist runs fleet_cold at layer size, traced, then the same sweeps on a
// local two-worker engine with no service, coordinator or wire.
func (l *layers) dist() error {
	z := l.z
	z.fleetSweeps = z.layerSweeps
	inst, err := setupFleetCold(z, l.seed+layerInput, "")
	if err != nil {
		return err
	}
	tr := newTracer()
	r := newRun(tr)
	if err := inst.rep(r); err != nil {
		return err
	}
	if r.failed > 0 {
		return fmt.Errorf("dist layer: %d of %d ops failed", r.failed, r.attempted())
	}
	var local []float64
	for _, sw := range inst.(*fleetCold).sweeps {
		eng := engine.New(engine.Options{})
		t0 := time.Now()
		if _, err := eng.Results(context.Background(), engine.Parallel{Workers: fleetWorkers}, sw.specs); err != nil {
			return err
		}
		local = append(local, time.Since(t0).Seconds()*1e3)
	}
	spans := tr.account().byName
	l.values["dist.sweep_makespan_ms"] = median(r.opMS)
	l.values["dist.local_sweep_ms"] = median(local)
	l.values["dist.fleet_over_local"] = median(r.opMS) / median(local)
	l.values["dist.lease_rtt_us"] = median(spans["dist.lease"]) / 1e3
	for _, name := range []string{"push_p50_us", "worker_busy_share", "trace_regen_ratio",
		"jobs_completed", "jobs_degraded", "jobs_requeued", "results_rejected"} {
		l.values["dist."+name] = median(r.extra["dist."+name])
	}
	return nil
}
