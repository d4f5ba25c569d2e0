package main

import (
	"dirsim/internal/report"
)

// metricSpec declares one metric the harness prints, in the shape
// BENCHMARK.json records it; the package test fails when the file and
// these tables disagree.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated worsening as a share of the parent's median
}

// endToEnd are the gated metrics; every workload reports every one
// (run.go defines the estimators). Every bound is the contract's maximum:
// CALIBRATION.md shows same-commit runs on the shared 2-core reference
// box spreading 4–8% on a quiet stretch and 9–21% on a busy one, and the
// whole box drifting 16% within an hour.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"refs_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.25},
}

// perLayer builds the ungated per-layer list: the traced workload's own
// ledger first, then the standalone layer measurements in package order.
func perLayer() []metricSpec {
	var m []metricSpec
	add := func(name, unit, better string) { m = append(m, metricSpec{Name: name, Unit: unit, Better: better}) }
	perScheme := func(prefix, unit, better string) {
		for _, s := range paperSchemes {
			add(prefix+"."+s, unit, better)
		}
	}

	// The traced workload (named by -workload): where one op's wall went.
	add("ledger.op_ms", "ms", "lower")
	for _, l := range ledgerLayers {
		add("ledger.ms_per_op."+l, "ms", "lower")
	}
	add("bench.unattributed_share", "ratio", "lower")
	add("bench.trace_overhead_ratio", "ratio", "lower")
	add("bench.steal_share", "ratio", "lower")

	for _, w := range []string{"pops", "thor", "pero"} {
		add("workload.gen_refs_per_s."+w, "1/s", "higher")
	}
	add("trace.encode_refs_per_s", "1/s", "higher")
	add("trace.decode_refs_per_s", "1/s", "higher")
	add("trace.bytes_per_ref", "B", "lower")
	perScheme("core.classify_refs_per_s", "1/s", "higher")
	perScheme("sim.simulate_refs_per_s", "1/s", "higher")
	add("sim.price_ns_per_ref", "ns", "lower")
	add("sim.sharded_refs_per_s.2", "1/s", "higher")
	add("sim.sharded_speedup.2", "ratio", "higher")
	add("sim.merge_us", "us", "lower")
	// Simulated statistics: exact per seed, so any movement is a model
	// change, not a speed-up.
	perScheme("bus.cycles_per_ref", "cycles", "lower")
	add("bus.dir0b_over_dragon", "ratio", "lower")
	add("event.inval_at_most_one_pct", "%", "higher")

	add("engine.cold_refs_per_s.seq", "1/s", "higher")
	add("engine.cold_refs_per_s.par", "1/s", "higher")
	add("engine.par_speedup", "ratio", "higher")
	add("engine.overhead_ratio", "ratio", "lower")
	add("engine.mem_hit_us", "us", "lower")
	add("engine.sims_run", "count", "lower")
	add("engine.cache_hits", "count", "higher")
	add("engine.traces_generated", "count", "lower")
	add("engine.stream_stalls", "count", "lower")

	add("store.put_result_us", "us", "lower")
	add("store.get_result_us", "us", "lower")
	add("store.put_trace_refs_per_s", "1/s", "higher")
	add("store.get_trace_refs_per_s", "1/s", "higher")
	add("store.open_ms", "ms", "lower")
	add("store.hits", "count", "higher")
	add("store.rejected", "count", "lower")

	add("service.submit_rtt_us", "us", "lower")
	add("service.events_wait_us", "us", "lower")
	add("service.get_result_us", "us", "lower")
	add("service.result_bytes", "B", "lower")
	add("service.dedup_hit_us", "us", "lower")
	add("service.admission_wait_us", "us", "lower")
	add("service.start_ms", "ms", "lower")
	add("service.drain_ms", "ms", "lower")

	add("dist.sweep_makespan_ms", "ms", "lower")
	add("dist.local_sweep_ms", "ms", "lower")
	add("dist.fleet_over_local", "ratio", "lower")
	add("dist.lease_rtt_us", "us", "lower")
	add("dist.push_p50_us", "us", "lower")
	add("dist.worker_busy_share", "ratio", "higher")
	add("dist.trace_regen_ratio", "ratio", "lower")
	add("dist.jobs_completed", "count", "higher")
	add("dist.jobs_degraded", "count", "lower")
	add("dist.jobs_requeued", "count", "lower")
	add("dist.results_rejected", "count", "lower")

	for _, id := range report.IDs() {
		add("report.exp_ms."+id, "ms", "lower")
	}
	add("report.cache_hit_ratio", "ratio", "higher")
	return m
}

// specsFor returns the metrics a run prints: the end-to-end ones
// untraced, the per-layer ones traced.
func specsFor(trace int) []metricSpec {
	if trace == 0 {
		return endToEnd
	}
	return perLayer()
}

// metricValue is one printed measurement.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render pairs measured values with their declared units, in declaration
// order, and reports any declared metric that was not measured.
func render(specs []metricSpec, values map[string]float64) (map[string]metricValue, []string) {
	out := make(map[string]metricValue, len(specs))
	var missing []string
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			missing = append(missing, s.Name)
			continue
		}
		out[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	return out, missing
}
