// Command dirsimd is the long-lived experiment server: a multi-tenant
// HTTP/JSON API over the simulation engine and a durable
// content-addressed result store.
//
// Usage:
//
//	dirsimd -listen :8080 -store /var/lib/dirsim
//	dirsimd -listen :0 -store ./cache -max-inflight 4 -quota 2 -discipline priority
//
// Clients POST scheme×workload×CPU sweeps to /api/v1/experiments (tenant
// identity in the X-Tenant-ID header), poll or stream progress, and
// fetch results. Identical sweeps — from any tenant, or any other
// dirsimd or experiments process sharing the store directory — are
// served from the store after fingerprint revalidation instead of being
// recomputed.
//
// Endpoints:
//
//	POST /api/v1/experiments             submit a sweep spec
//	GET  /api/v1/experiments             list experiments
//	GET  /api/v1/experiments/{id}        status + results
//	GET  /api/v1/experiments/{id}/events journal events over SSE
//	GET  /api/v1/experiments/{id}/trace  the experiment's journal as Chrome trace JSON (Perfetto)
//	GET  /api/v1/store                   durable store statistics
//	GET  /healthz                        liveness / drain state
//	GET  /metrics                        Prometheus text exposition
//	GET  /runz, /debug/pprof/*           the httpmon monitor endpoints
//
// With -fleet the server also exposes the distributed execution API
// (POST /api/v1/dist/{lease,heartbeat,result}, GET /api/v1/dist/stats)
// and offers every simulation to pull workers — see cmd/dirsimw —
// before running it locally; fingerprints on pushed results are
// revalidated before acceptance, and an empty or failing fleet degrades
// each job back to local execution:
//
//	dirsimd -listen :8080 -store ./cache -fleet -fleet-journal fleet.jsonl
//	dirsimw -coordinator http://localhost:8080 &
//	dirsimw -coordinator http://localhost:8080 &
//
// Every response carries an X-Dirsim-Trace header naming the trace the
// request ran under; callers may supply their own via the same header.
// Per-route and per-tenant request/error/latency metrics appear on
// /metrics, and -manifest writes the run report (obs.RunReport: every
// counter and gauge, store traffic included) on shutdown.
//
// On SIGTERM or SIGINT the server drains: new work is refused (503),
// queued-but-unstarted experiments abort, running experiments finish and
// persist their results, event streams close, and in-flight HTTP
// requests complete before the process exits. A second signal, or the
// -drain-timeout deadline, forces exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dirsim/internal/dist"
	"dirsim/internal/obs"
	"dirsim/internal/obs/httpmon"
	"dirsim/internal/service"
	"dirsim/internal/store"
)

type config struct {
	listen       string
	storeDir     string
	storeMax     int64
	maxInflight  int
	maxQueue     int
	quota        int
	discipline   string
	simWorkers   int
	verify       bool
	drainTimeout time.Duration
	manifest     string
	fleet        bool
	leaseTTL     time.Duration
	hedgeAfter   time.Duration
	degradeAfter time.Duration
	fleetJournal string
	journalMax   int64
	journalKeep  int
}

func main() {
	var cfg config
	var showVersion bool
	flag.StringVar(&cfg.listen, "listen", ":8080", "address to serve on (\":0\" picks a free port)")
	flag.StringVar(&cfg.storeDir, "store", "", "durable result store directory (empty disables persistence)")
	flag.Int64Var(&cfg.storeMax, "store-max-bytes", 0, "store size bound triggering LRU eviction (0 = unbounded)")
	flag.IntVar(&cfg.maxInflight, "max-inflight", 2, "experiments executed concurrently")
	flag.IntVar(&cfg.maxQueue, "max-queue", 64, "experiments waiting for a slot before 503s")
	flag.IntVar(&cfg.quota, "quota", 0, "per-tenant cap on queued+running experiments (0 = unlimited)")
	flag.StringVar(&cfg.discipline, "discipline", "fcfs", "admission queue policy: fcfs or priority")
	flag.IntVar(&cfg.simWorkers, "sim-workers", 0, "engine parallelism within one experiment (0 = all cores)")
	flag.BoolVar(&cfg.verify, "verify", true, "revalidate cache hits against content fingerprints")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", time.Minute, "how long SIGTERM waits for running work")
	flag.StringVar(&cfg.manifest, "manifest", "", "write a run manifest (JSON) here on shutdown (\"-\" = stdout)")
	flag.BoolVar(&cfg.fleet, "fleet", false, "serve the fleet API and shard sweeps across pull workers (dirsimw), degrading to local when none respond")
	flag.DurationVar(&cfg.leaseTTL, "lease-ttl", 0, "fleet job lease lifetime without a heartbeat (0 = default)")
	flag.DurationVar(&cfg.hedgeAfter, "hedge-after", 0, "fleet straggler age before a hedge lease is granted (0 = default)")
	flag.DurationVar(&cfg.degradeAfter, "degrade-after", 0, "fleet silence before a queued job degrades to local execution (0 = default)")
	flag.StringVar(&cfg.fleetJournal, "fleet-journal", "", "write fleet job/lease/result events (JSON lines) here (\"-\" = stderr)")
	flag.Int64Var(&cfg.journalMax, "fleet-journal-max-bytes", 0, "size-rotate the fleet journal when it would exceed this (0 = no rotation)")
	flag.IntVar(&cfg.journalKeep, "fleet-journal-keep", 4, "rotated fleet-journal segments to keep (path.1 … path.N)")
	flag.BoolVar(&showVersion, "version", false, "print build version and exit")
	flag.Parse()

	if showVersion {
		fmt.Println("dirsimd", obs.Build())
		return
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "dirsimd:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	start := time.Now()
	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	reg := obs.NewRegistry()
	obs.RegisterBuildInfo(reg)

	var st *store.Store
	if cfg.storeDir != "" {
		var err error
		st, err = store.Open(cfg.storeDir, store.Options{MaxBytes: cfg.storeMax, Metrics: reg})
		if err != nil {
			return err
		}
		log.Info("store open", "dir", st.Dir(), "entries", st.Stats().Entries, "bytes", st.Stats().Bytes)
	}

	// In fleet mode the engine offers every simulation to the
	// coordinator first; pull workers (dirsimw) lease the jobs over the
	// dist API. An empty or unresponsive fleet degrades each job back to
	// local execution, so -fleet with no workers behaves like plain
	// dirsimd, just slower to start each job.
	var coord *dist.Coordinator
	if cfg.fleet {
		var journal *obs.Journal
		if cfg.fleetJournal != "" {
			var err error
			journal, err = obs.OpenJournal(cfg.fleetJournal, cfg.journalMax, cfg.journalKeep)
			if err != nil {
				return err
			}
			defer journal.Close()
		}
		coord = dist.NewCoordinator(dist.Options{
			LeaseTTL:     cfg.leaseTTL,
			HedgeAfter:   cfg.hedgeAfter,
			DegradeAfter: cfg.degradeAfter,
			Metrics:      reg,
			Journal:      journal,
		})
		defer coord.Close()
	}

	svcCfg := service.Config{
		Store:       st,
		Metrics:     reg,
		MaxInflight: cfg.maxInflight,
		MaxQueue:    cfg.maxQueue,
		Quota:       cfg.quota,
		Discipline:  cfg.discipline,
		SimWorkers:  cfg.simWorkers,
		Verify:      cfg.verify,
		Log:         log,
	}
	if coord != nil {
		svcCfg.Remote = coord
	}
	svc, err := service.New(svcCfg)
	if err != nil {
		return err
	}
	svc.Start()

	mux := httpmon.NewMux(httpmon.Options{
		Metrics: reg,
		Index: map[string]string{
			"/api/v1/experiments": "experiment service API",
			"/api/v1/store":       "durable store statistics",
			"/healthz":            "liveness and drain state",
		},
	})
	svc.Register(mux)
	if coord != nil {
		dist.Register(mux, coord)
	}
	// Catch signals before the first request can be answered: a client
	// that gets its results and sends SIGTERM at once must find the
	// handler installed, not the default disposition.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	srv, err := httpmon.Serve(cfg.listen, mux)
	if err != nil {
		return err
	}
	// The parseable listen line sign-posts tests and scripts to the real
	// port when -listen :0 was used.
	fmt.Fprintf(os.Stderr, "dirsimd: listening on %s\n", srv.Addr())
	log.Info("serving", "addr", srv.Addr(), "discipline", cfg.discipline,
		"max_inflight", cfg.maxInflight, "quota", cfg.quota, "fleet", cfg.fleet)

	sig := <-sigs
	log.Info("draining", "signal", sig.String(), "timeout", cfg.drainTimeout)

	ctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	go func() {
		// A second signal forces immediate exit.
		<-sigs
		log.Warn("second signal, aborting drain")
		cancel()
	}()

	// Refuse new work and finish what is running, then drain the HTTP
	// server so in-flight responses (result fetches, closing SSE
	// streams) complete.
	drainErr := svc.Drain(ctx)
	if coord != nil {
		// Nothing is left to lease; close now (the deferred Close is then a
		// no-op) so requests parked on the coordinator reply at once and
		// Shutdown does not sit out the rest of their holds.
		coord.Close()
	}
	if err := srv.Shutdown(ctx); err != nil && drainErr == nil {
		drainErr = err
	}
	if cfg.manifest != "" {
		// The run report without a journal record: every registry counter
		// and gauge (engine, store, service admission/tenant, HTTP RED)
		// over the server's lifetime.
		rep := obs.Report(nil, reg, start)
		rep.Command, rep.Build = "dirsimd", obs.Build()
		rep.Config = obs.RunConfig{Run: "service", Parallel: cfg.maxInflight,
			Executor: "service:" + cfg.discipline, Listen: srv.Addr(), Store: cfg.storeDir}
		if err := rep.Write(cfg.manifest); err != nil {
			log.Warn("manifest", "error", err)
			if drainErr == nil {
				drainErr = err
			}
		} else {
			log.Info("manifest written", "path", cfg.manifest)
		}
	}
	if drainErr != nil {
		return drainErr
	}
	log.Info("drained cleanly")
	return nil
}
