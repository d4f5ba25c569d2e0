package main

import (
	"context"
	"fmt"
	"net/http"
	"path"
	"sync"
	"time"

	"dirsim/internal/dist"
	"dirsim/internal/engine"
	"dirsim/internal/service"
)

// fleetWorkers is the fleet size: with the service's dispatcher that is
// already more runnable goroutines than the reference box has cores.
const fleetWorkers = 2

// fleetCold measures cold submit→terminal through the fleet: a service
// whose engine offers every simulation to a dist.Coordinator, two
// in-process pull workers with engines of their own, and the closed-loop
// client submitting sweeps nobody has seen. service, dist
// lease/heartbeat/push, the workers' engines, workload generation and
// sim are on the path; the store is bypassed. The fleet is rebuilt every
// rep because worker engines and the service's experiment table retain
// every trace and experiment, so the same sweeps are new to every rep.
type fleetCold struct {
	sweeps []sweep
}

func setupFleetCold(z sizes, seed uint64, _ string) (instance, error) {
	w := &fleetCold{}
	for i := 0; i < z.fleetSweeps; i++ {
		sw, err := newSweep(z.fleetRefs, seed, i)
		if err != nil {
			return nil, fmt.Errorf("fleet_cold: sweep %d: %w", i, err)
		}
		w.sweeps = append(w.sweeps, sw)
	}
	// Warm-up rep, untimed and unrecorded.
	if err := w.rep(newRun(nil)); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *fleetCold) rep(r *run) error {
	var coord *dist.Coordinator
	var svc *service.Service
	var srv *server
	var engines []*engine.Engine
	var workers sync.WaitGroup
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := r.overhead("dist.fleet_start", func() (err error) {
		coord = dist.NewCoordinator(dist.Options{})
		if svc, err = service.New(service.Config{Remote: coord, Verify: true}); err != nil {
			coord.Close()
			return err
		}
		svc.Start()
		mux := http.NewServeMux()
		svc.Register(mux)
		dist.Register(mux, coord)
		if srv, err = serve(mux); err != nil {
			drain(svc)
			coord.Close()
			return err
		}
		for i := 0; i < fleetWorkers; i++ {
			eng := observedEngine(r.tr)
			engines = append(engines, eng)
			wk := &dist.Worker{
				Name:   fmt.Sprintf("w%d", i+1),
				Client: &dist.Client{Base: srv.base, HTTP: &http.Client{Transport: tracedTransport(r.tr)}},
				Engine: eng,
				Exec:   engine.Parallel{Workers: 1},
				Poll:   10 * time.Millisecond,
			}
			workers.Add(1)
			go func() {
				defer workers.Done()
				wk.Run(ctx) // returns nil once ctx is cancelled; no crash injector is set
			}()
		}
		return nil
	})
	if err != nil {
		return err
	}
	c := newClient(srv.base, r.tr)
	runSweeps(r, c, w.sweeps)
	c.close()

	stats := coord.Stats()
	err = r.overhead("dist.fleet_stop", func() error {
		cancel()
		workers.Wait()
		err := drain(svc)
		coord.Close()
		if serr := srv.stop(); err == nil {
			err = serr
		}
		return err
	})
	if err != nil {
		return err
	}

	var generated int64
	for _, eng := range engines {
		generated += eng.Stats().TracesGenerated
	}
	distinct := 0
	for _, sw := range w.sweeps {
		distinct += len(sw.specs) / len(paperSchemes)
	}
	r.sample("dist.trace_regen_ratio", float64(generated)/float64(distinct))
	r.sample("dist.jobs_completed", float64(stats.JobsCompleted))
	r.sample("dist.jobs_degraded", float64(stats.JobsDegraded))
	r.sample("dist.jobs_requeued", float64(stats.JobsRequeued))
	r.sample("dist.results_rejected", float64(stats.ResultsRejected))
	var busy, push float64
	for _, ws := range stats.Workers {
		busy += ws.UtilizationPct / 100
		push += float64(ws.PushP50US)
	}
	if n := float64(len(stats.Workers)); n > 0 {
		r.sample("dist.worker_busy_share", busy/n)
		r.sample("dist.push_p50_us", push/n)
	}
	return nil
}

// tracedTransport is the workers' HTTP transport. Traced, every fleet
// call (lease, heartbeat, result push, journal) becomes a dist span named
// after its route.
func tracedTransport(tr *tracer) http.RoundTripper {
	base := &http.Transport{MaxIdleConnsPerHost: 1}
	if tr == nil {
		return base
	}
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		start := time.Now()
		resp, err := base.RoundTrip(req)
		tr.async("dist."+path.Base(req.URL.Path), layerDist, time.Since(start))
		return resp, err
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

func (w *fleetCold) digest() string { return digestOf(w.sweeps) }
