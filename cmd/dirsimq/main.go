// Command dirsimq is the journal analytics CLI: it answers questions
// about dirsim runs from their JSONL journals alone — the files
// cmd/experiments -journal writes and the event streams dirsimd serves —
// with no access to the process that produced them.
//
// Usage:
//
//	dirsimq stats  [-trace ID] [-tenant T] [-kind K] [-msg M] journal.jsonl...
//	dirsimq filter [-trace ID] [-tenant T] [-kind K] [-msg M] journal.jsonl...
//	dirsimq timeline [-strict] [<traceID|jobKey|all>] journal.jsonl...
//	dirsimq chrome <traceID|all> journal.jsonl...
//	dirsimq diff   [-threshold 0.10] baseline.jsonl current.jsonl
//
// stats aggregates: events by type, engine-job latency breakdowns per
// kind and per phase, cache and durable-store hit ratios, and the
// traces/tenants seen. filter re-emits matching raw JSONL lines (for
// piping into jq or another dirsimq). timeline reconstructs one
// request's causal chain end-to-end — submission, admission wait, every
// engine job, store access, and retry it caused — in time order, and
// sums it up. Across a fleet it merges a coordinator journal with the
// worker lines shipped into it (-ship-journal on dirsimw), corrects
// worker timestamps by their recorded clock-skew estimates, and checks
// the chain's books — see -h. chrome renders the span lines of one
// trace, or of all, as a Perfetto-loadable Chrome trace. diff compares
// two runs and flags latency or hit-ratio regressions beyond the
// threshold, exiting 1 so CI can gate on it.
//
// "-" reads standard input. Lines that do not parse as journal JSON are
// counted and skipped, so a journal interleaved with other stderr output
// still analyzes.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"dirsim/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	cmd, rest := args[0], args[1:]
	var err error
	code := 0
	switch cmd {
	case "stats":
		err = cmdStats(rest, stdout, stderr)
	case "filter":
		err = cmdFilter(rest, stdout, stderr)
	case "timeline":
		code, err = cmdTimeline(rest, stdout, stderr)
	case "chrome":
		err = cmdChrome(rest, stdout, stderr)
	case "diff":
		code, err = cmdDiff(rest, stdout, stderr)
	case "version", "-version", "--version":
		fmt.Fprintln(stdout, "dirsimq", obs.Build())
		return 0
	case "help", "-h", "--help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "dirsimq: unknown command %q\n", cmd)
		usage(stderr)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "dirsimq:", err)
		return 2
	}
	return code
}

func usage(w io.Writer) {
	fmt.Fprint(w, `dirsimq — dirsim journal analytics

  dirsimq stats  [-trace ID] [-tenant T] [-kind K] [-msg M] journal.jsonl...
  dirsimq filter [-trace ID] [-tenant T] [-kind K] [-msg M] journal.jsonl...
  dirsimq timeline [-strict] [<traceID|jobKey|all>] journal.jsonl...
  dirsimq chrome <traceID|all> journal.jsonl...
  dirsimq diff   [-threshold 0.10] baseline.jsonl current.jsonl

timeline lists one request's causal chain in time order with a
one-line summary; given journals alone, it lists the traces and job
keys to pick from. Over a fleet journal (with shipped worker lines) the
chain is skew-corrected — queue, leases, heartbeats, worker-side
execution, result — and verified: no orphan lease references, books
balanced (-strict exits 1 otherwise, for CI). chrome renders span lines
as Chrome trace-event JSON for Perfetto on stdout.

"-" reads standard input; file journals read their whole rotated set
(journal.jsonl.N …) when present. -msg matches the event name exactly,
or as a prefix when it ends in '*' (e.g. -msg 'job.*').
`)
}

// matcher is the shared selection predicate behind stats and filter.
type matcher struct {
	trace, tenant, kind, msg string
}

func (m *matcher) register(fs *flag.FlagSet) {
	fs.StringVar(&m.trace, "trace", "", "select lines of this trace ID")
	fs.StringVar(&m.tenant, "tenant", "", "select lines of this tenant")
	fs.StringVar(&m.kind, "kind", "", "select engine-job lines of this kind (trace, sim)")
	fs.StringVar(&m.msg, "msg", "", "select this event name (trailing '*' matches a prefix)")
}

func (m *matcher) match(l obs.Line) bool {
	if m.trace != "" && l.Trace != m.trace {
		return false
	}
	if m.tenant != "" && l.Str("tenant") != m.tenant {
		return false
	}
	if m.kind != "" && l.Str("kind") != m.kind {
		return false
	}
	if m.msg != "" {
		if prefix, ok := strings.CutSuffix(m.msg, "*"); ok {
			if !strings.HasPrefix(l.Msg, prefix) {
				return false
			}
		} else if l.Msg != m.msg {
			return false
		}
	}
	return true
}

// phaseOf folds a job kind into its phase, as the engine's
// engine.job.<phase>.us histograms do: a sim job is the simulate phase.
// The engine no longer runs trace jobs — a generation is a trace.generate
// span, which summarize counts as the generate phase — but an older
// journal's trace: job lines still fold into that phase. Any other kind
// is its own phase.
func phaseOf(kind string) string {
	switch kind {
	case "trace":
		return "generate"
	case "sim":
		return "simulate"
	}
	return kind
}

// dist is an accumulating latency distribution (microseconds).
type dist struct{ vals []int64 }

func (d *dist) add(v int64) { d.vals = append(d.vals, v) }
func (d *dist) count() int  { return len(d.vals) }

func (d *dist) sum() int64 {
	var s int64
	for _, v := range d.vals {
		s += v
	}
	return s
}

func (d *dist) mean() float64 {
	if len(d.vals) == 0 {
		return 0
	}
	return float64(d.sum()) / float64(len(d.vals))
}

// quantile is nearest-rank on the sorted values.
func (d *dist) quantile(q float64) int64 {
	if len(d.vals) == 0 {
		return 0
	}
	s := append([]int64(nil), d.vals...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s)-1) + 0.5)
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// summary is everything stats prints and diff compares, aggregated from
// one journal selection. An event that is only counted — a retry, a
// store write, each step of the fleet's queue/lease/result ledger — is
// read from byMsg by its message.
type summary struct {
	events    int
	skipped   int
	errors    int
	byMsg     map[string]int64
	byKind    map[string]*dist // job.finish dur_us per kind
	byPhase   map[string]*dist // job.finish and trace.generate dur_us per phase
	traces    map[string]struct{}
	tenants   map[string]struct{}
	cacheHits int64
	cacheMiss int64
	storeHit  int64
	storeMiss int64

	// distWorkers holds the worker names seen on either side of the
	// fleet's wire, workers the tallies per worker.
	distWorkers map[string]struct{}
	workers     map[string]*workerAgg
}

// workerAgg is one worker's slice of the fleet journal: leases the
// coordinator granted it, job outcomes it reported, journal lines it
// shipped home, and its last clock-skew estimate (from the skew_ns
// stamp the coordinator splices onto shipped lines).
type workerAgg struct {
	leases   int64
	finishes int64
	jobErrs  int64
	crashes  int64
	shipped  int64
	skewNS   int64
	skewSet  bool
}

func summarize(lines []obs.Line, skipped int) *summary {
	s := &summary{
		skipped:     skipped,
		byMsg:       map[string]int64{},
		byKind:      map[string]*dist{},
		byPhase:     map[string]*dist{},
		traces:      map[string]struct{}{},
		tenants:     map[string]struct{}{},
		distWorkers: map[string]struct{}{},
		workers:     map[string]*workerAgg{},
	}
	worker := func(name string) *workerAgg {
		wa := s.workers[name]
		if wa == nil {
			wa = &workerAgg{}
			s.workers[name] = wa
		}
		return wa
	}
	addDist := func(m map[string]*dist, key string, v int64) {
		d := m[key]
		if d == nil {
			d = &dist{}
			m[key] = d
		}
		d.add(v)
	}
	for _, l := range lines {
		s.events++
		s.byMsg[l.Msg]++
		if l.Level == "ERROR" {
			s.errors++
		}
		if l.Trace != "" {
			s.traces[l.Trace] = struct{}{}
		}
		if t := l.Str("tenant"); t != "" {
			s.tenants[t] = struct{}{}
		}
		if w := l.Str("worker"); w != "" {
			s.distWorkers[w] = struct{}{}
			if skew, ok := l.Num("skew_ns"); ok { // a shipped line (obs.Line.Shipped)
				wa := worker(w)
				wa.shipped++
				wa.skewNS, wa.skewSet = skew, true
			}
		}
		switch l.Msg {
		case "job.finish":
			kind := l.Str("kind")
			if d, ok := l.Num("dur_us"); ok {
				addDist(s.byKind, kind, d)
				addDist(s.byPhase, phaseOf(kind), d)
			}
			if l.Bool("cache_hit") {
				s.cacheHits++
			} else {
				s.cacheMiss++
			}
		case "trace.generate":
			if d, ok := l.Num("dur_us"); ok {
				addDist(s.byPhase, "generate", d)
			}
		case "store.load":
			if l.Bool("hit") {
				s.storeHit++
			} else {
				s.storeMiss++
			}
		case "job.lease", "job.hedge":
			if w := l.Str("worker"); w != "" {
				worker(w).leases++
			}
		case "worker.crash":
			if w := l.Str("worker"); w != "" {
				worker(w).crashes++
			}
		case "worker.job.finish":
			if w := l.Str("worker"); w != "" {
				worker(w).finishes++
			}
		case "worker.job.error":
			if w := l.Str("worker"); w != "" {
				worker(w).jobErrs++
			}
		}
	}
	return s
}

func cmdStats(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var m matcher
	m.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("stats: no journal files given")
	}
	lines, skipped, err := obs.LoadJournals(fs.Args())
	if err != nil {
		return err
	}
	var sel []obs.Line
	for _, l := range lines {
		if m.match(l) {
			sel = append(sel, l)
		}
	}
	s := summarize(sel, skipped)
	writeStats(stdout, s)
	return nil
}

func writeStats(w io.Writer, s *summary) {
	fmt.Fprintf(w, "events: %d", s.events)
	if s.skipped > 0 {
		fmt.Fprintf(w, " (%d non-journal lines skipped)", s.skipped)
	}
	fmt.Fprintf(w, "  errors: %d  traces: %d  tenants: %d\n",
		s.errors, len(s.traces), len(s.tenants))

	fmt.Fprintln(w, "\nevents by type:")
	for _, k := range sortedKeys(s.byMsg) {
		fmt.Fprintf(w, "  %-22s %6d\n", k, s.byMsg[k])
	}

	if len(s.byKind) > 0 {
		fmt.Fprintln(w, "\nengine jobs (dur_us):")
		fmt.Fprintf(w, "  %-10s %6s %10s %10s %10s %12s\n", "kind", "count", "p50", "p95", "max", "total")
		for _, k := range sortedKeys(s.byKind) {
			d := s.byKind[k]
			fmt.Fprintf(w, "  %-10s %6d %10d %10d %10d %12d\n",
				k, d.count(), d.quantile(0.50), d.quantile(0.95), d.quantile(1), d.sum())
		}
	}
	if len(s.byPhase) > 0 {
		fmt.Fprintln(w, "\nphases (dur_us):")
		for _, k := range sortedKeys(s.byPhase) {
			d := s.byPhase[k]
			fmt.Fprintf(w, "  %-10s %6d %12d\n", k, d.count(), d.sum())
		}
	}

	if s.cacheHits+s.cacheMiss > 0 {
		fmt.Fprintf(w, "\ncache: %d hits / %d misses (ratio %.3f)\n",
			s.cacheHits, s.cacheMiss, obs.HitRatio(s.cacheHits, s.cacheMiss))
	}
	n := s.byMsg
	if s.storeHit+s.storeMiss+n["store.store"] > 0 {
		fmt.Fprintf(w, "store: %d loads (%d hits, ratio %.3f), %d stores\n",
			s.storeHit+s.storeMiss, s.storeHit, obs.HitRatio(s.storeHit, s.storeMiss), n["store.store"])
	}
	if n["job.retry"]+n["cache.reject"] > 0 {
		fmt.Fprintf(w, "faults: %d retries, %d cache rejects\n", n["job.retry"], n["cache.reject"])
	}

	if n["job.queue"]+n["job.lease"]+n["result.accept"]+n["job.degrade"] > 0 {
		fmt.Fprintln(w, "\ndistributed execution:")
		fmt.Fprintf(w, "  jobs: %d queued, %d accepted remotely, %d degraded to local\n",
			n["job.queue"], n["result.accept"], n["job.degrade"])
		fmt.Fprintf(w, "  leases: %d granted (%d hedges), %d expired, %d requeues\n",
			n["job.lease"], n["job.hedge"], n["job.lease.expire"], n["job.requeue"])
		fmt.Fprintf(w, "  results: %d rejected, %d duplicates discarded\n",
			n["result.reject"], n["result.duplicate"])
		fmt.Fprintf(w, "  workers: %d seen, %d circuit-broken, %d crashed\n",
			len(s.distWorkers), n["worker.break"], n["worker.crash"])
	}

	if len(s.workers) > 0 {
		fmt.Fprintln(w, "\nper-worker:")
		fmt.Fprintf(w, "  %-20s %7s %8s %6s %8s %8s %10s\n",
			"worker", "leases", "finished", "errors", "crashes", "shipped", "skew_us")
		for _, name := range sortedKeys(s.workers) {
			wa := s.workers[name]
			skew := "-"
			if wa.skewSet {
				skew = fmt.Sprintf("%+d", wa.skewNS/1000)
			}
			fmt.Fprintf(w, "  %-20s %7d %8d %6d %8d %8d %10s\n",
				name, wa.leases, wa.finishes, wa.jobErrs, wa.crashes, wa.shipped, skew)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func cmdFilter(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("filter", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var m matcher
	m.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("filter: no journal files given")
	}
	lines, _, err := obs.LoadJournals(fs.Args())
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(stdout)
	defer bw.Flush()
	for _, l := range lines {
		if m.match(l) {
			bw.Write(l.Raw)
			bw.WriteByte('\n')
		}
	}
	return nil
}

// renderEvent formats one journal line for timeline's listing, indenting
// engine- and store-level events under the request-level ones.
func renderEvent(l obs.Line) string {
	var b strings.Builder
	switch l.Msg {
	case "job.scheduled", "job.start", "job.finish", "job.retry", "job.panic",
		"trace.generate", "store.load", "store.store", "cache.reject", "stream.end",
		"job.lease", "job.hedge", "job.requeue", "job.lease.expire",
		"job.remote.error", "result.accept", "result.reject", "result.duplicate",
		"worker.probe", "worker.job.start", "worker.job.finish", "worker.job.error",
		"worker.lease.lost", "worker.lease.corrupt", "worker.push.discarded",
		"worker.push.rejected":
		b.WriteString("  ")
	}
	b.WriteString(l.Msg)
	// Attributes in a stable, relevance-first order.
	for _, k := range []string{"id", "tenant", "job", "kind", "key", "name",
		"worker", "lease", "scheme", "workload", "leases", "fingerprint",
		"discipline", "wait_us", "dur_us", "wall_us", "cache_hit", "hit",
		"chunks", "stalls", "attempt", "affine", "held_us", "specs", "state", "cause", "reason", "error"} {
		if v, ok := l.Attrs[k]; ok {
			fmt.Fprintf(&b, " %s=%v", k, v)
		}
	}
	if l.Level == "ERROR" {
		b.WriteString("  [ERROR]")
	}
	return b.String()
}

// metricDelta is one compared metric in diff's report.
type metricDelta struct {
	name              string
	baseline, current float64
	// higherIsWorse: latency-like metrics regress upward, ratio-like
	// metrics regress downward.
	higherIsWorse bool
}

func (m metricDelta) delta() float64 {
	if m.baseline == 0 {
		return 0
	}
	return (m.current - m.baseline) / m.baseline
}

func (m metricDelta) regressed(threshold float64) bool {
	if m.baseline == 0 {
		return false
	}
	d := m.delta()
	if m.higherIsWorse {
		return d > threshold
	}
	return d < -threshold
}

// cmdDiff compares two journals and flags regressions beyond the
// threshold; it exits 1 (not an error) when any metric regressed, so CI
// can gate on it while still printing the full report.
func cmdDiff(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threshold := fs.Float64("threshold", 0.10, "relative regression threshold (0.10 = 10%)")
	traceA := fs.String("trace-a", "", "restrict baseline to this trace ID")
	traceB := fs.String("trace-b", "", "restrict current to this trace ID")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if fs.NArg() != 2 {
		return 2, fmt.Errorf("diff: want exactly two journals (baseline current), got %d", fs.NArg())
	}
	base, err := loadSummary(fs.Arg(0), *traceA)
	if err != nil {
		return 2, err
	}
	cur, err := loadSummary(fs.Arg(1), *traceB)
	if err != nil {
		return 2, err
	}

	var deltas []metricDelta
	kinds := map[string]struct{}{}
	for k := range base.byKind {
		kinds[k] = struct{}{}
	}
	for k := range cur.byKind {
		kinds[k] = struct{}{}
	}
	for _, k := range sortedKeys(kinds) {
		b, c := base.byKind[k], cur.byKind[k]
		if b == nil || c == nil || b.count() == 0 || c.count() == 0 {
			continue // a kind present on one side only is a shape change, not a regression
		}
		deltas = append(deltas,
			metricDelta{"job." + k + ".mean_us", b.mean(), c.mean(), true},
			metricDelta{"job." + k + ".p95_us", float64(b.quantile(0.95)), float64(c.quantile(0.95)), true},
		)
	}
	count := func(name, msg string) metricDelta {
		return metricDelta{name, float64(base.byMsg[msg]), float64(cur.byMsg[msg]), true}
	}
	deltas = append(deltas,
		metricDelta{"cache.hit_ratio", obs.HitRatio(base.cacheHits, base.cacheMiss), obs.HitRatio(cur.cacheHits, cur.cacheMiss), false},
		metricDelta{"store.hit_ratio", obs.HitRatio(base.storeHit, base.storeMiss), obs.HitRatio(cur.storeHit, cur.storeMiss), false},
		metricDelta{"errors", float64(base.errors), float64(cur.errors), true},
		count("retries", "job.retry"),
		// The fleet coordination tax: requeues, rejected pushes, expired
		// leases, and local degradations are all zero on a healthy fleet,
		// so a faulted run diffs loudly against a clean baseline. Absent
		// entirely (both zero) for non-fleet journals.
		count("dist.requeues", "job.requeue"),
		count("dist.rejected_pushes", "result.reject"),
		count("dist.expired_leases", "job.lease.expire"),
		count("dist.degraded_jobs", "job.degrade"),
	)

	fmt.Fprintf(stdout, "baseline: %s (%d events)   current: %s (%d events)   threshold: %.0f%%\n\n",
		fs.Arg(0), base.events, fs.Arg(1), cur.events, *threshold*100)
	fmt.Fprintf(stdout, "%-24s %14s %14s %9s\n", "metric", "baseline", "current", "delta")
	regressions := 0
	for _, d := range deltas {
		if d.baseline == 0 && d.current == 0 {
			continue
		}
		mark := ""
		if d.regressed(*threshold) {
			mark = "  REGRESSION"
			regressions++
		}
		fmt.Fprintf(stdout, "%-24s %14.1f %14.1f %+8.1f%%%s\n",
			d.name, d.baseline, d.current, d.delta()*100, mark)
	}
	if regressions > 0 {
		fmt.Fprintf(stdout, "\n%d metric(s) regressed beyond %.0f%%\n", regressions, *threshold*100)
		return 1, nil
	}
	fmt.Fprintln(stdout, "\nno regressions")
	return 0, nil
}

func loadSummary(path, traceID string) (*summary, error) {
	lines, skipped, err := obs.LoadJournals([]string{path})
	if err != nil {
		return nil, err
	}
	if traceID != "" {
		var sel []obs.Line
		for _, l := range lines {
			if l.Trace == traceID {
				sel = append(sel, l)
			}
		}
		lines = sel
	}
	return summarize(lines, skipped), nil
}
