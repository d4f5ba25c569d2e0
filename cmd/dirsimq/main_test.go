package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// journalA is a small but complete run: one request trace (abc123) whose
// chain goes submission → admission → engine jobs → store accesses, plus
// a second trace (zzz999) from another tenant to prove selection.
const journalA = `{"time":"2026-08-08T10:00:00.000Z","level":"INFO","msg":"experiment.submitted","schema":2,"trace":"abc123","id":"exp-1","tenant":"alice"}
{"time":"2026-08-08T10:00:00.100Z","level":"INFO","msg":"admission.done","schema":2,"trace":"abc123","id":"exp-1","wait_us":100000,"discipline":"fcfs"}
{"time":"2026-08-08T10:00:00.101Z","level":"INFO","msg":"job.scheduled","schema":2,"trace":"abc123","job":"trace:pops","kind":"trace","key":"k1"}
{"time":"2026-08-08T10:00:00.200Z","level":"INFO","msg":"store.load","schema":2,"trace":"abc123","kind":"result","key":"k2","hit":false,"dur_us":150}
{"time":"2026-08-08T10:00:00.300Z","level":"INFO","msg":"job.finish","schema":2,"trace":"abc123","job":"trace:pops","kind":"trace","key":"k1","dur_us":2000,"cache_hit":false}
{"time":"2026-08-08T10:00:00.400Z","level":"INFO","msg":"job.finish","schema":2,"trace":"abc123","job":"sim:Dir1@pops","kind":"sim","key":"k2","dur_us":5000,"cache_hit":false}
{"time":"2026-08-08T10:00:00.450Z","level":"INFO","msg":"store.store","schema":2,"trace":"abc123","kind":"result","key":"k2","dur_us":300}
{"time":"2026-08-08T10:00:00.500Z","level":"INFO","msg":"job.finish","schema":2,"trace":"abc123","job":"merge:Dir1","kind":"merge","dur_us":100,"cache_hit":false}
{"time":"2026-08-08T10:00:00.600Z","level":"INFO","msg":"experiment.finish","schema":2,"trace":"abc123","id":"exp-1"}
{"time":"2026-08-08T10:00:01.000Z","level":"INFO","msg":"job.finish","schema":2,"trace":"zzz999","job":"sim:Dir1@pops","kind":"sim","key":"k2","dur_us":40,"cache_hit":true,"tenant":"bob"}
not a json line
`

// journalB is journalA's sim jobs slowed 3x with a lower cache hit rate,
// for diff's regression detection.
const journalB = `{"time":"2026-08-08T11:00:00.000Z","level":"INFO","msg":"job.finish","schema":2,"trace":"r2","job":"trace:pops","kind":"trace","key":"k1","dur_us":2000,"cache_hit":false}
{"time":"2026-08-08T11:00:00.100Z","level":"INFO","msg":"job.finish","schema":2,"trace":"r2","job":"sim:Dir1@pops","kind":"sim","key":"k2","dur_us":15000,"cache_hit":false}
{"time":"2026-08-08T11:00:00.200Z","level":"ERROR","msg":"job.finish","schema":2,"trace":"r2","job":"merge:Dir1","kind":"merge","dur_us":100,"cache_hit":false,"error":"boom"}
`

// journalGen is a run of the engine's current shape: no trace job, the
// generation a trace.generate span before the one walk job that needed
// it, and a second walk over the same trace.
const journalGen = `{"time":"2026-10-01T10:00:00.000Z","level":"INFO","msg":"job.scheduled","schema":4,"trace":"g1","job":"sim:Dir0B+WTI@pops","kind":"sim"}
{"time":"2026-10-01T10:00:00.001Z","level":"INFO","msg":"job.scheduled","schema":4,"trace":"g1","job":"sim:Dragon@pops","kind":"sim"}
{"time":"2026-10-01T10:00:00.300Z","level":"INFO","msg":"trace.generate","schema":4,"trace":"g1","span":"a1","name":"generate:pops","key":"k1","dur_us":2500}
{"time":"2026-10-01T10:00:00.301Z","level":"INFO","msg":"job.start","schema":4,"trace":"g1","job":"sim:Dir0B+WTI@pops","kind":"sim"}
{"time":"2026-10-01T10:00:00.302Z","level":"INFO","msg":"job.start","schema":4,"trace":"g1","job":"sim:Dragon@pops","kind":"sim"}
{"time":"2026-10-01T10:00:00.400Z","level":"INFO","msg":"job.finish","schema":4,"trace":"g1","span":"a2","job":"sim:Dir0B+WTI@pops","kind":"sim","name":"sim:Dir0B+WTI@pops","dur_us":4000,"cache_hit":false}
{"time":"2026-10-01T10:00:00.500Z","level":"INFO","msg":"job.finish","schema":4,"trace":"g1","span":"a3","job":"sim:Dragon@pops","kind":"sim","name":"sim:Dragon@pops","dur_us":6000,"cache_hit":false}
`

// TestGenerationSpansAreTheGeneratePhase: stats counts a trace.generate
// span as the generate phase beside the walk jobs' simulate phase, and
// lists no trace kind among the jobs; timeline counts the generations. An
// older journal's trace: job still folds into the same phase.
func TestGenerationSpansAreTheGeneratePhase(t *testing.T) {
	path := writeJournal(t, "gen.jsonl", journalGen)
	code, out, errb := runCLI(t, "stats", path)
	if code != 0 {
		t.Fatalf("stats exit %d, stderr: %s", code, errb)
	}
	for _, want := range []string{"generate        1         2500", "simulate        2        10000"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing phase line %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "\n  trace ") {
		t.Errorf("stats lists a trace job kind for a journal without trace jobs:\n%s", out)
	}
	_, out, _ = runCLI(t, "stats", path, writeJournal(t, "b.jsonl", journalB))
	if !strings.Contains(out, "generate        2         4500") {
		t.Errorf("an older journal's trace: job did not fold into the generate phase:\n%s", out)
	}
	code, out, errb = runCLI(t, "timeline", "g1", path)
	if code != 0 || !strings.Contains(out, "2 jobs (0 cache hits), 1 generations") ||
		!strings.Contains(out, "  trace.generate key=k1 name=generate:pops dur_us=2500") {
		t.Errorf("timeline exit %d:\n%s%s", code, out, errb)
	}
}

func writeJournal(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestStats(t *testing.T) {
	path := writeJournal(t, "a.jsonl", journalA)
	code, out, errb := runCLI(t, "stats", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	for _, want := range []string{
		"events: 10",
		"1 non-journal lines skipped",
		"traces: 2",
		"job.finish",
		"sim", "trace", "merge",
		"cache: 1 hits / 3 misses (ratio 0.250)",
		"store: 1 loads (0 hits, ratio 0.000), 1 stores",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}
}

func TestStatsFilters(t *testing.T) {
	path := writeJournal(t, "a.jsonl", journalA)

	// Per-trace selection drops the other tenant's cache hit.
	_, out, _ := runCLI(t, "stats", "-trace", "abc123", path)
	if !strings.Contains(out, "cache: 0 hits / 3 misses") {
		t.Errorf("trace-filtered stats wrong:\n%s", out)
	}
	// Kind selection sees only the sim jobs.
	_, out, _ = runCLI(t, "stats", "-kind", "sim", path)
	if !strings.Contains(out, "events: 2") {
		t.Errorf("kind-filtered stats wrong:\n%s", out)
	}
	// Tenant selection matches only lines carrying the tenant attr.
	_, out, _ = runCLI(t, "stats", "-tenant", "bob", path)
	if !strings.Contains(out, "events: 1") {
		t.Errorf("tenant-filtered stats wrong:\n%s", out)
	}
}

func TestFilterEmitsRawLines(t *testing.T) {
	path := writeJournal(t, "a.jsonl", journalA)
	code, out, _ := runCLI(t, "filter", "-msg", "job.*", "-trace", "abc123", path)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // job.scheduled + three job.finish
		t.Fatalf("filter emitted %d lines, want 4:\n%s", len(lines), out)
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "{") || !strings.Contains(l, `"trace":"abc123"`) {
			t.Errorf("filter line not raw journal JSON: %s", l)
		}
	}
}

// TestTimelineReconstructsCausalChain: timeline lists one request's
// chain in time order, leaves other traces out, and sums the chain up.
func TestTimelineReconstructsCausalChain(t *testing.T) {
	path := writeJournal(t, "a.jsonl", journalA)
	code, out, errb := runCLI(t, "timeline", "abc123", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	// The full chain appears, in time order.
	order := []string{"experiment.submitted", "admission.done", "job.scheduled",
		"store.load", "job.finish", "store.store", "experiment.finish"}
	last := -1
	for _, ev := range order {
		i := strings.Index(out, ev)
		if i < 0 {
			t.Fatalf("timeline output missing %q:\n%s", ev, out)
		}
		if i < last {
			t.Errorf("event %q out of order:\n%s", ev, out)
		}
		last = i
	}
	if strings.Contains(out, "zzz999") {
		t.Errorf("timeline leaked another trace's events:\n%s", out)
	}
	if !strings.Contains(out, "3 jobs (0 cache hits)") || !strings.Contains(out, "1 store loads (0 hits)") {
		t.Errorf("timeline summary wrong:\n%s", out)
	}
	// The chain has no fleet line, so there are no fleet books to show.
	if strings.Contains(out, "books:") || strings.Contains(out, "orphan") {
		t.Errorf("timeline printed fleet books for a local chain:\n%s", out)
	}
}

// TestTimelineListsTracesWhenUnspecified: given a journal alone,
// timeline lists the traces to pick from.
func TestTimelineListsTracesWhenUnspecified(t *testing.T) {
	path := writeJournal(t, "a.jsonl", journalA)
	code, out, _ := runCLI(t, "timeline", path)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "abc123") || !strings.Contains(out, "zzz999") {
		t.Errorf("trace listing incomplete:\n%s", out)
	}
}

func TestDiffFlagsRegression(t *testing.T) {
	a := writeJournal(t, "a.jsonl", journalA)
	b := writeJournal(t, "b.jsonl", journalB)

	code, out, errb := runCLI(t, "diff", "-threshold", "0.10", a, b)
	if code != 1 {
		t.Fatalf("diff exit = %d, want 1 (regression); stderr: %s\n%s", code, errb, out)
	}
	if !strings.Contains(out, "job.sim.mean_us") || !strings.Contains(out, "REGRESSION") {
		t.Errorf("diff did not flag the sim slowdown:\n%s", out)
	}
	// The unchanged trace-generation latency must not be flagged.
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, "job.trace.mean_us") && strings.Contains(l, "REGRESSION") {
			t.Errorf("diff flagged an unchanged metric: %s", l)
		}
	}

	// Same journal on both sides: clean exit.
	code, out, _ = runCLI(t, "diff", a, a)
	if code != 0 || !strings.Contains(out, "no regressions") {
		t.Errorf("self-diff exit = %d, want 0:\n%s", code, out)
	}

	// A huge threshold tolerates the slowdown but errors still regress
	// (0 → 1 has baseline 0, which never trips; so assert exit 0 here).
	code, _, _ = runCLI(t, "diff", "-threshold", "100", a, b)
	if code != 0 {
		t.Errorf("diff with 10000%% threshold exit = %d, want 0", code)
	}
}

func TestDiffDistCounters(t *testing.T) {
	a := writeJournal(t, "a.jsonl", journalA)
	dist := writeJournal(t, "dist.jsonl", journalDist)

	// Fleet ledger vs itself: the dist rows appear with equal sides.
	code, out, errb := runCLI(t, "diff", dist, dist)
	if code != 0 {
		t.Fatalf("self-diff exit = %d, stderr: %s\n%s", code, errb, out)
	}
	for _, want := range []string{"dist.requeues", "dist.rejected_pushes", "dist.expired_leases", "dist.degraded_jobs"} {
		if !strings.Contains(out, want) {
			t.Errorf("fleet self-diff missing %q:\n%s", want, out)
		}
	}

	// Non-fleet journals on both sides: no dist rows at all.
	_, out, _ = runCLI(t, "diff", a, a)
	if strings.Contains(out, "dist.") {
		t.Errorf("non-fleet diff grew dist rows:\n%s", out)
	}
}

func TestUsageAndErrors(t *testing.T) {
	if code, _, _ := runCLI(t); code != 2 {
		t.Errorf("no args exit = %d, want 2", code)
	}
	if code, _, _ := runCLI(t, "bogus"); code != 2 {
		t.Errorf("unknown command exit = %d, want 2", code)
	}
	if code, out, _ := runCLI(t, "help"); code != 0 || !strings.Contains(out, "dirsimq") {
		t.Errorf("help exit = %d", code)
	}
	if code, _, errb := runCLI(t, "stats", "/nonexistent/x.jsonl"); code != 2 || !strings.Contains(errb, "dirsimq:") {
		t.Errorf("missing file exit = %d, stderr %q", code, errb)
	}
	path := writeJournal(t, "a.jsonl", journalA)
	if code, _, _ := runCLI(t, "timeline", "nope", path); code != 2 {
		t.Errorf("unknown trace exit = %d, want 2", code)
	}
	if code, _, _ := runCLI(t, "diff", path); code != 2 {
		t.Errorf("diff with one file exit = %d, want 2", code)
	}
}

// TestRetiredJournalEvents: journals written before a mechanism left the
// engine still carry its lines, and every command reads them under
// -strict. testdata/legacy_shard.jsonl holds one sharded simulation's
// sim.shard lines (two workers and the splitter, on request trace tr1):
// ordinary events of a type no command has a section for, so stats counts
// them by type and prints nothing else about them. testdata/
// legacy_stream.jsonl holds one streamed generation (the job.* lines of a
// kind "stream" job and its stream.end): the job is its own phase,
// stream, like any kind the engine no longer writes, and -kind stream
// still selects it.
func TestRetiredJournalEvents(t *testing.T) {
	fleet := writeJournal(t, "fleet.jsonl", fleetJournal)
	code, base, errb := runCLI(t, "stats", fleet)
	if code != 0 {
		t.Fatalf("stats exit %d, stderr: %s", code, errb)
	}
	for _, tc := range []struct {
		file      string
		inStats   []string // stats mentions each of these
		tallyOnly string   // if set, lines naming it are all that stats adds to base
		filter    []string // a selection re-emitting exactly want raw lines
		want      int
	}{
		{"testdata/legacy_shard.jsonl", []string{"sim.shard"}, "sim.shard",
			[]string{"-msg", "sim.shard"}, 3},
		{"testdata/legacy_stream.jsonl", []string{"stream.end", "stream  "}, "",
			[]string{"-kind", "stream"}, 3},
	} {
		code, out, errb := runCLI(t, "stats", fleet, tc.file)
		if code != 0 {
			t.Fatalf("stats with %s exit %d, stderr: %s", tc.file, code, errb)
		}
		for _, sub := range tc.inStats {
			if !strings.Contains(out, sub) {
				t.Errorf("stats over %s does not mention %q:\n%s", tc.file, sub, out)
			}
		}
		if strings.Contains(out, "sharded") {
			t.Errorf("stats over %s prints a sharded section:\n%s", tc.file, out)
		}
		if tc.tallyOnly != "" {
			strip := func(s string) string {
				var keep []string
				for _, l := range strings.Split(s, "\n") {
					if !strings.Contains(l, tc.tallyOnly) && !strings.Contains(l, "events") {
						keep = append(keep, l)
					}
				}
				return strings.Join(keep, "\n")
			}
			if strip(out) != strip(base) {
				t.Errorf("%s changed stats beyond the event tally:\n%s\nvs\n%s", tc.file, out, base)
			}
		}

		code, out, errb = runCLI(t, append(append([]string{"filter"}, tc.filter...), fleet, tc.file)...)
		if code != 0 || strings.Count(out, "\n") != tc.want {
			t.Errorf("filter %v exit %d, want the %d raw legacy lines, got:\n%s%s",
				tc.filter, code, tc.want, out, errb)
		}
		for _, l := range strings.Split(strings.TrimSpace(out), "\n") {
			if !strings.Contains(l, `"`+tc.filter[1]+`"`) {
				t.Errorf("filter %v re-emitted an unselected line: %s", tc.filter, l)
			}
		}

		code, out, errb = runCLI(t, "timeline", "-strict", "all", fleet, tc.file)
		if code != 0 || !strings.Contains(out, "[balanced]") || strings.Contains(out, "sharded") {
			t.Errorf("timeline -strict exit %d over %s:\n%s%s", code, tc.file, out, errb)
		}
	}
}

// journalDist is a coordinator's ledger for a two-job fleet run: one job
// completes remotely after a lease expiry and requeue, a corrupt push is
// rejected, a hedge twin's late push is discarded, and the other job
// degrades to local when the fleet goes quiet after w2 crashes.
const journalDist = `{"time":"2026-08-08T12:00:00.000Z","level":"INFO","msg":"job.queue","schema":2,"trace":"d1","key":"aaaa","scheme":"Dir1NB","workload":"pops"}
{"time":"2026-08-08T12:00:00.001Z","level":"INFO","msg":"job.queue","schema":2,"trace":"d1","key":"bbbb","scheme":"Dir0B","workload":"pops"}
{"time":"2026-08-08T12:00:00.010Z","level":"INFO","msg":"job.lease","schema":2,"trace":"d1","key":"aaaa","worker":"w1","lease":"l1"}
{"time":"2026-08-08T12:00:00.020Z","level":"INFO","msg":"job.lease","schema":2,"trace":"d1","key":"bbbb","worker":"w2","lease":"l2"}
{"time":"2026-08-08T12:00:01.000Z","level":"INFO","msg":"job.lease.expire","schema":2,"trace":"d1","key":"aaaa","worker":"w1","lease":"l1"}
{"time":"2026-08-08T12:00:01.001Z","level":"INFO","msg":"job.requeue","schema":2,"trace":"d1","key":"aaaa","attempt":1,"cause":"lease expired"}
{"time":"2026-08-08T12:00:01.010Z","level":"INFO","msg":"job.lease","schema":2,"trace":"d1","key":"aaaa","worker":"w3","lease":"l3","attempt":1,"hedge":false,"affine":true,"held_us":420}
{"time":"2026-08-08T12:00:01.200Z","level":"INFO","msg":"job.hedge","schema":2,"trace":"d1","key":"aaaa","worker":"w1","lease":"l4","leases":2}
{"time":"2026-08-08T12:00:01.300Z","level":"INFO","msg":"result.reject","schema":2,"trace":"d1","key":"aaaa","worker":"w3","lease":"l3","cause":"fingerprint mismatch"}
{"time":"2026-08-08T12:00:01.400Z","level":"INFO","msg":"result.accept","schema":2,"trace":"d1","key":"aaaa","worker":"w1","lease":"l4","fingerprint":"0xdead"}
{"time":"2026-08-08T12:00:01.500Z","level":"INFO","msg":"result.duplicate","schema":2,"trace":"d1","key":"aaaa","worker":"w3","lease":"l3"}
{"time":"2026-08-08T12:00:02.000Z","level":"INFO","msg":"worker.break","schema":2,"trace":"d1","worker":"w2","cause":"lease expired"}
{"time":"2026-08-08T12:00:03.000Z","level":"INFO","msg":"job.degrade","schema":2,"trace":"d1","key":"bbbb","reason":"fleet silent"}
`

// TestStatsDist: the distributed-execution section aggregates the
// coordinator's journal — jobs, leases, hedges, rejections, degradations,
// and the worker population.
func TestStatsDist(t *testing.T) {
	path := writeJournal(t, "dist.jsonl", journalDist)
	code, out, errb := runCLI(t, "stats", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	for _, want := range []string{
		"distributed execution:",
		"jobs: 2 queued, 1 accepted remotely, 1 degraded to local",
		"leases: 3 granted (1 hedges), 1 expired, 1 requeues",
		"results: 1 rejected, 1 duplicates discarded",
		"workers: 3 seen, 1 circuit-broken, 0 crashed",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}
}

// TestTimelineDist: timeline renders the fleet events of one trace with
// their workers, leases, and causes.
func TestTimelineDist(t *testing.T) {
	path := writeJournal(t, "dist.jsonl", journalDist)
	code, out, errb := runCLI(t, "timeline", "d1", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	for _, want := range []string{
		"job.queue key=aaaa scheme=Dir1NB workload=pops",
		"job.lease key=aaaa worker=w1 lease=l1",
		"job.requeue key=aaaa attempt=1 cause=lease expired",
		"job.lease key=aaaa worker=w3 lease=l3 attempt=1 affine=true held_us=420",
		"job.hedge key=aaaa worker=w1 lease=l4 leases=2",
		"result.reject key=aaaa worker=w3 lease=l3 cause=fingerprint mismatch",
		"result.accept key=aaaa worker=w1 lease=l4 fingerprint=0xdead",
		"job.degrade key=bbbb reason=fleet silent",
		"books: 2 queued = 1 accepted + 1 degraded + 0 failed  [balanced]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline output missing %q:\n%s", want, out)
		}
	}
}
