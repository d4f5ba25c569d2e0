package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"dirsim/internal/engine"
	"dirsim/internal/report"
)

// jobObserver turns a harness-built engine's job completions into spans.
// A job that ran charges its wall to the layer that did the work: a
// materialized generation to workload, a simulation to sim, a merge to
// engine. A streamed group — one engine job that generates a workload and
// runs its simulators inside itself — is charged to engine, because the
// harness cannot see inside it. Cache hits are waits on someone else's
// job and record nothing.
type jobObserver struct{ tr *tracer }

func (o jobObserver) JobScheduled(context.Context, string, string, string) {}
func (o jobObserver) JobStarted(context.Context, string, string, string)   {}
func (o jobObserver) StreamEnded(context.Context, string, int64, int64)    {}

func (o jobObserver) JobFinished(_ context.Context, _, kind, _ string, d time.Duration, cacheHit bool, _ error) {
	if cacheHit {
		return
	}
	layer := layerEngine
	switch kind {
	case "trace":
		layer = layerWorkload
	case "sim", "protocol":
		layer = layerSim
	}
	o.tr.async("engine.job:"+kind, layer, d)
}

// observedEngine builds an engine with default options, observed when
// the rep is traced. Untraced it is exactly engine.New(engine.Options{}).
func observedEngine(tr *tracer) *engine.Engine {
	if tr == nil {
		return engine.New(engine.Options{})
	}
	return engine.New(engine.Options{Observer: jobObserver{tr}})
}

// paperRegen regenerates every paper artifact the way the researcher's
// command does (cmd/experiments -run all -parallel 0): all experiments
// concurrently on one fresh engine under the Parallel executor. Generation,
// engine scheduling/streaming/caching, sim and report are on the path, on
// every core; store, HTTP and the fleet are bypassed. The paper's inputs
// are fixed, so the workload is seedless.
type paperRegen struct {
	refs int
	want string // digest of the sequential regeneration's rendered text
}

func setupPaperRegen(z sizes, _ uint64, _ string) (instance, error) {
	w := &paperRegen{refs: z.regenRefs}
	// Oracle: the same experiments, one at a time, on the Sequential
	// executor.
	ctx := report.NewContextWith(w.refs, benchCPUs, engine.New(engine.Options{}), engine.Sequential{})
	var outs []string
	for _, e := range report.Experiments() {
		out, err := ctx.RunExperiment(e)
		if err != nil {
			return nil, fmt.Errorf("paper_regen: oracle %s: %w", e.ID, err)
		}
		outs = append(outs, out)
	}
	w.want = textDigest(outs)
	// Warm-up rep, untimed and unrecorded.
	if err := w.rep(newRun(nil)); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *paperRegen) rep(r *run) error {
	r.timed(func() {
		o := r.begin("op:regenerate")
		outs, stats, err := regenerate(r.tr, w.refs)
		o.end()
		if err == nil {
			if got := textDigest(outs); got != w.want {
				err = fmt.Errorf("paper_regen: rendered text digest %s, sequential oracle %s", got, w.want)
			}
		}
		o.done(stats.RefsSimulated, err)
	})
	return nil
}

// regenerate runs all experiments concurrently on a fresh engine and
// context, as cmd/experiments does in parallel mode: the engine's worker
// pool bounds the simulations, its caches deduplicate the shared ones.
func regenerate(tr *tracer, refs int) ([]string, engine.Stats, error) {
	defer tr.enter("report.RunExperiment*", layerReport)()
	eng := observedEngine(tr)
	ctx := report.NewContextWith(refs, benchCPUs, eng, engine.Parallel{})
	exps := report.Experiments()
	outs := make([]string, len(exps))
	errs := make([]error, len(exps))
	var wg sync.WaitGroup
	for i := range exps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = ctx.RunExperiment(exps[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, eng.Stats(), fmt.Errorf("paper_regen: %s: %w", exps[i].ID, err)
		}
	}
	return outs, eng.Stats(), nil
}

func textDigest(outs []string) string {
	h := sha256.New()
	for _, out := range outs {
		fmt.Fprintf(h, "%d\n%s\n", len(out), out)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func (w *paperRegen) digest() string { return w.want }
