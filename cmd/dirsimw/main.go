// Command dirsimw is a pull worker for a dirsimd fleet: it leases
// simulation jobs from a coordinator (dirsimd -fleet), executes them on
// its own engine, and pushes fingerprint-stamped results back. Workers
// are interchangeable and disposable — the coordinator revalidates
// every result, reassigns expired leases, and degrades to local
// execution when the whole fleet disappears, so killing a worker
// mid-job never loses or corrupts a sweep.
//
// Usage:
//
//	dirsimw -coordinator http://localhost:8080
//	dirsimw -coordinator http://host:8080 -name rack3-w1 -store /var/lib/dirsim
//	dirsimw -coordinator http://host:8080 -journal w1.jsonl -ship-journal
//	dirsimw -coordinator http://host:8080 -faults 'drop=0.1,wiredelay=0.3,wiredelaydur=5ms' -fault-seed 7
//
// The optional -store directory may be shared with the coordinator or
// other workers: warm results are served from it (after fingerprint
// revalidation) without simulating. -faults injects deterministic
// transport faults on the worker's wire — the same classes the soak
// tests run under — for rehearsing fleet failure modes against a live
// coordinator.
//
// Observability: the worker journals its own lease/job lifecycle and
// its engine's spans. -ship-journal streams those journal lines to the
// coordinator's fleet journal (best-effort, bounded buffer, drops
// counted), each line stamped coordinator-side with the worker's name
// and clock-skew estimate so `dirsimq timeline` and `dirsimq chrome` can
// merge both sides onto one clock; a line of a job the coordinator
// traces also lands in the submitting request's journal, under the
// lease's span, and the worker flushes them before it pushes the
// result. Without -ship-journal a worker contributes no spans. -journal-max-bytes/-journal-keep size-rotate the
// local journal file. SIGTERM or SIGINT finishes the current heartbeat
// cycle, flushes the shipper, and exits cleanly; a lease the worker
// abandons is reassigned when it expires.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dirsim/internal/dist"
	"dirsim/internal/engine"
	"dirsim/internal/faults"
	"dirsim/internal/obs"
	"dirsim/internal/store"
)

type config struct {
	coordinator     string
	name            string
	poll            time.Duration
	storeDir        string
	verify          bool
	faultSpec       string
	faultSeed       uint64
	journal         string
	journalMaxBytes int64
	journalKeep     int
	shipJournal     bool
}

func main() {
	var cfg config
	var showVersion bool
	flag.StringVar(&cfg.coordinator, "coordinator", "", "coordinator base URL (required), e.g. http://localhost:8080")
	flag.StringVar(&cfg.name, "name", "", "worker name in leases and journals (default host-pid)")
	flag.DurationVar(&cfg.poll, "poll", time.Second, "longest hold / idle wait: how long the coordinator may hold a lease request that finds no work (wire field wait_ms), and the wait before asking again when it did not hold it")
	flag.StringVar(&cfg.storeDir, "store", "", "durable result store directory, shareable with the coordinator (empty disables)")
	flag.BoolVar(&cfg.verify, "verify", true, "revalidate store hits against content fingerprints")
	flag.StringVar(&cfg.faultSpec, "faults", "", "inject transport faults, e.g. 'drop=0.1,dup=0.05,wiredelay=0.2,wiredelaydur=5ms'")
	flag.Uint64Var(&cfg.faultSeed, "fault-seed", 1, "seed for deterministic fault injection")
	flag.StringVar(&cfg.journal, "journal", "-", "write worker events (JSON lines) here (\"-\" = stderr, empty disables)")
	flag.Int64Var(&cfg.journalMaxBytes, "journal-max-bytes", 0, "size-rotate the journal file when it would exceed this (0 = no rotation)")
	flag.IntVar(&cfg.journalKeep, "journal-keep", 4, "rotated journal segments to keep (path.1 … path.N)")
	flag.BoolVar(&cfg.shipJournal, "ship-journal", false, "stream journal lines to the coordinator's fleet journal (best-effort)")
	flag.BoolVar(&showVersion, "version", false, "print build version and exit")
	flag.Parse()

	if showVersion {
		fmt.Println("dirsimw", obs.Build())
		return
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "dirsimw:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if cfg.coordinator == "" {
		return fmt.Errorf("-coordinator is required")
	}
	if cfg.name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		cfg.name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	reg := obs.NewRegistry()
	obs.RegisterBuildInfo(reg)
	var tier engine.Tier
	if cfg.storeDir != "" {
		st, err := store.Open(cfg.storeDir, store.Options{Metrics: reg})
		if err != nil {
			return err
		}
		tier = st
	}

	// -faults wraps the worker's wire in the same deterministic
	// transport injector the soak tests use; the crash class makes the
	// worker die silently on a leased job so lease expiry can be
	// rehearsed end to end.
	var transport http.RoundTripper
	var inj *faults.Injector
	if cfg.faultSpec != "" {
		fcfg, err := faults.ParseSpec(cfg.faultSpec, cfg.faultSeed)
		if err != nil {
			return err
		}
		transport = dist.NewFaultTransport(cfg.name, faults.New(fcfg), nil)
		if fcfg.Crash > 0 {
			inj = faults.New(fcfg)
		}
	}

	client := &dist.Client{
		Base:    cfg.coordinator,
		HTTP:    &http.Client{Transport: transport},
		Metrics: reg,
	}
	w := &dist.Worker{
		Name:    cfg.name,
		Client:  client,
		Poll:    cfg.poll,
		Inj:     inj,
		Metrics: reg,
		Version: obs.Build(),
	}

	// The journal: an optional size-rotated local file (or stderr),
	// optionally teed into the shipper that streams the same lines to
	// the coordinator. Shipping without a local journal is allowed:
	// -journal '' -ship-journal keeps only the fleet copy.
	var tee []io.Writer
	var shipper *dist.JournalShipper
	if cfg.shipJournal {
		shipper = dist.NewJournalShipper(client, cfg.name, dist.ShipperOptions{
			Skew:    w.SkewNS,
			Metrics: reg,
		})
		tee = append(tee, shipper)
	}
	journal, err := obs.OpenJournal(cfg.journal, cfg.journalMaxBytes, cfg.journalKeep, tee...)
	if err != nil {
		return err
	}
	defer journal.Close()
	w.Journal, w.Shipper = journal, shipper

	// The worker puts its journal on every job's context, so the engine
	// journals the job lifecycle worker-side and a shipped journal
	// carries the execution story, not just leases.
	eng := engine.New(engine.Options{
		Metrics: reg,
		Store:   tier,
		Verify:  cfg.verify,
	})
	w.Engine = eng

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	fmt.Fprintf(os.Stderr, "dirsimw: %s (%s) pulling from %s\n", cfg.name, obs.Build(), cfg.coordinator)
	err = w.Run(ctx)
	if shipper != nil {
		// Final flush on a fresh context: ctx is already cancelled when
		// the worker exits on a signal.
		fctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shipper.Close(fctx)
	}
	return err
}
