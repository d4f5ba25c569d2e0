package main

import (
	"flag"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"dirsim/internal/obs"
)

// cmdTimeline reconstructs the causal chain of one trace or job (or the
// whole journal) in one time-ordered listing, then sums it up: jobs and
// their cache hits, store loads and their hits, retries, errors. Given
// journals alone, it lists the traces and job keys to pick from.
//
// Over a coordinator's fleet journal with shipped worker lines merged
// in, the chain runs queue → lease grants → heartbeats → the worker's
// own job lifecycle → result push → accept/reject on the coordinator's
// clock. Worker-shipped lines (recognizable by the worker/skew_ns stamp the
// coordinator splices on) carry the worker's wall clock; timeline
// shifts them by the skew estimate (obs.Line.At) so both sides of the
// wire order correctly even when the worker's clock is off.
//
// When the chain has fleet lines it also verifies their consistency
// (obs.CheckFleet):
//
//   - every lease a worker references was actually granted by the
//     coordinator (no orphan lease references), and
//   - the books balance: jobs queued == accepted + degraded + failed.
//
// -strict exits 1 when either check fails, so CI can gate on it.
func cmdTimeline(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("timeline", flag.ContinueOnError)
	fs.SetOutput(stderr)
	strict := fs.Bool("strict", false, "exit 1 on orphan lease references or unbalanced books")
	noSkew := fs.Bool("no-skew-correct", false, "print worker lines on their own clock (skip skew correction)")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if fs.NArg() == 1 {
		// A journal alone: list what is available instead of failing dry.
		lines, _, err := obs.LoadJournals(fs.Args())
		if err != nil {
			return 2, err
		}
		listSelectors(lines, stdout)
		return 0, nil
	}
	if fs.NArg() < 2 {
		return 2, fmt.Errorf("timeline: want [<traceID|jobKey|all>] journal.jsonl..., got %d args", fs.NArg())
	}
	sel, paths := fs.Arg(0), fs.Args()[1:]
	lines, _, err := obs.LoadJournals(paths)
	if err != nil {
		return 2, err
	}

	chain := selectChain(lines, sel)
	if len(chain) == 0 {
		listSelectors(lines, stdout)
		return 2, fmt.Errorf("timeline: no events match %q", sel)
	}

	// Merge onto the coordinator's clock: shipped worker lines shift by
	// their skew estimate (coordinator minus worker, so adding converts).
	type entry struct {
		l  obs.Line
		at time.Time
	}
	entries := make([]entry, 0, len(chain))
	anySkewed := false
	for _, l := range chain {
		e := entry{l: l, at: l.Time}
		if l.Shipped() && !*noSkew {
			e.at, anySkewed = l.At(), true
		}
		entries = append(entries, e)
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].at.Before(entries[j].at) })

	fmt.Fprintf(stdout, "timeline %s: %d events, %s → %s\n", sel, len(entries),
		entries[0].at.Format("15:04:05.000"), entries[len(entries)-1].at.Format("15:04:05.000"))
	s := summarize(chain, 0)
	if len(s.workers) > 0 {
		var parts []string
		for _, name := range sortedKeys(s.workers) {
			wa := s.workers[name]
			if wa.skewSet {
				parts = append(parts, fmt.Sprintf("%s %+dus", name, wa.skewNS/1000))
			}
		}
		if len(parts) > 0 {
			fmt.Fprintf(stdout, "worker clock skew (coordinator minus worker): %s\n", strings.Join(parts, ", "))
		}
	}
	fmt.Fprintln(stdout)
	for _, e := range entries {
		src := "coord"
		if e.l.Shipped() {
			src = e.l.Str("worker")
			if !*noSkew {
				src += "*"
			}
		}
		fmt.Fprintf(stdout, "%s  %-14s %s\n", e.at.Format("15:04:05.000000"), src, renderEvent(e.l))
	}
	if anySkewed {
		fmt.Fprintln(stdout, "\n(* worker line, timestamp skew-corrected onto the coordinator's clock)")
	}

	fmt.Fprintf(stdout, "\nsummary: %d events", s.events)
	if n := s.cacheHits + s.cacheMiss; n > 0 {
		fmt.Fprintf(stdout, ", %d jobs (%d cache hits)", n, s.cacheHits)
	}
	if n := s.storeHit + s.storeMiss; n > 0 {
		fmt.Fprintf(stdout, ", %d store loads (%d hits)", n, s.storeHit)
	}
	if n := s.byMsg["job.retry"]; n > 0 {
		fmt.Fprintf(stdout, ", %d retries", n)
	}
	if s.errors > 0 {
		fmt.Fprintf(stdout, ", %d errors", s.errors)
	}
	fmt.Fprintln(stdout)

	// Structural consistency over the selection's fleet lines: every one
	// names a worker or is counted in the books.
	check := obs.CheckFleet(chain)
	if len(s.distWorkers) > 0 || check.Queued+check.Accepted+check.Degraded+check.Failed > 0 {
		fmt.Fprintf(stdout, "books: %d queued = %d accepted + %d degraded + %d failed",
			check.Queued, check.Accepted, check.Degraded, check.Failed)
		if check.Balanced() {
			fmt.Fprintln(stdout, "  [balanced]")
		} else {
			fmt.Fprintln(stdout, "  [UNBALANCED]")
		}
		fmt.Fprintf(stdout, "orphan lease references: %d\n", len(check.Orphans))
		for _, o := range check.Orphans {
			fmt.Fprintf(stdout, "  %s %s lease=%s\n", o.Str("worker"), o.Msg, o.Str("lease"))
		}
	}
	if *strict && !check.OK() {
		fmt.Fprintln(stdout, "\ntimeline: consistency checks FAILED")
		return 1, nil
	}
	return 0, nil
}

// selectChain picks the causal chain: everything for "all", else lines
// whose trace ID matches, or whose (possibly shortened) job key
// prefix-matches the selector either way round.
func selectChain(lines []obs.Line, sel string) []obs.Line {
	if sel == "all" {
		return lines
	}
	var out []obs.Line
	for _, l := range lines {
		if l.Trace == sel {
			out = append(out, l)
			continue
		}
		if k := l.Str("key"); k != "" &&
			(strings.HasPrefix(k, sel) || strings.HasPrefix(sel, k)) {
			out = append(out, l)
		}
	}
	return out
}

func listSelectors(lines []obs.Line, w io.Writer) {
	traces := map[string]int{}
	keys := map[string]int{}
	for _, l := range lines {
		if l.Trace != "" {
			traces[l.Trace]++
		}
		if k := l.Str("key"); k != "" {
			keys[k]++
		}
	}
	if len(traces) > 0 {
		fmt.Fprintln(w, "traces in journal:")
		for _, t := range sortedKeys(traces) {
			fmt.Fprintf(w, "  %s  (%d events)\n", t, traces[t])
		}
	}
	if len(keys) > 0 {
		fmt.Fprintln(w, "job keys in journal:")
		for _, k := range sortedKeys(keys) {
			fmt.Fprintf(w, "  %s  (%d events)\n", k, keys[k])
		}
	}
}

// cmdChrome renders the span lines of a timeline selection (a trace, a
// job key, or all) as Chrome trace-event JSON on stdout, the rendering
// the CLIs' -trace and dirsimd's /trace give, and reports on stderr how
// many spans name a parent the journals lack (otherData.orphans).
func cmdChrome(args []string, stdout, stderr io.Writer) error {
	if len(args) < 2 {
		return fmt.Errorf("chrome: want <traceID|all> journal.jsonl..., got %d args", len(args))
	}
	lines, _, err := obs.LoadJournals(args[1:])
	if err != nil {
		return err
	}
	st, err := obs.WriteChrome(stdout, selectChain(lines, args[0]))
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "chrome: %d spans, %d instants, %d orphans\n", st.Spans, st.Instants, st.Orphans)
	return nil
}
