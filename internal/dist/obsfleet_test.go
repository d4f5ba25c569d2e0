package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dirsim/internal/engine"
	"dirsim/internal/faults"
	"dirsim/internal/obs"
	"dirsim/internal/obs/httpmon"
	"dirsim/internal/sim"
)

// TestSkewEstimator: Cristian's algorithm over synthetic round trips —
// the estimator recovers a known offset, keeps the minimum-RTT sample
// (the tightest error bound), and ignores pre-skew coordinators and
// garbage intervals.
func TestSkewEstimator(t *testing.T) {
	var e skewEstimator
	if _, ok := e.Offset(); ok {
		t.Fatal("fresh estimator claims an offset")
	}

	// Server 5s ahead, observed through a symmetric 10ms round trip: the
	// midpoint sample recovers the offset exactly.
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	const offset = 5 * time.Second
	t0, t2 := base, base.Add(10*time.Millisecond)
	server := t0.Add(5 * time.Millisecond).Add(offset)
	e.Observe(t0, t2, server.UnixNano(), 0)
	if got, ok := e.Offset(); !ok || got != offset.Nanoseconds() {
		t.Fatalf("Offset = %d,%v, want %d", got, ok, offset.Nanoseconds())
	}
	if e.rttNS != (10 * time.Millisecond).Nanoseconds() {
		t.Errorf("rtt = %dns, want 10ms", e.rttNS)
	}

	// A fatter round trip (a retried request) must not displace the
	// tight sample, whatever offset it implies.
	e.Observe(base, base.Add(2*time.Second), base.Add(time.Minute).UnixNano(), 0)
	if got, _ := e.Offset(); got != offset.Nanoseconds() {
		t.Errorf("fat-RTT sample displaced the estimate: %d", got)
	}

	// A tighter round trip wins.
	t0, t2 = base, base.Add(2*time.Millisecond)
	server = t0.Add(time.Millisecond).Add(offset + time.Millisecond)
	e.Observe(t0, t2, server.UnixNano(), 0)
	if got, _ := e.Offset(); got != (offset + time.Millisecond).Nanoseconds() {
		t.Errorf("tighter sample did not win: %d", got)
	}
	if e.rttNS != (2 * time.Millisecond).Nanoseconds() {
		t.Errorf("rtt = %dns, want 2ms", e.rttNS)
	}

	// A request the server parked for a second and stamped on reply is
	// as tight as its unheld part: 1ms here, so it wins, and the hold
	// shifts nothing.
	t0, t2 = base, base.Add(time.Second+time.Millisecond)
	server = t2.Add(-500 * time.Microsecond).Add(offset + 2*time.Millisecond)
	e.Observe(t0, t2, server.UnixNano(), time.Second)
	if got, _ := e.Offset(); got != (offset+2*time.Millisecond).Nanoseconds() || e.rttNS != time.Millisecond.Nanoseconds() {
		t.Errorf("held sample: offset %d rtt %dns, want %d and 1ms", got, e.rttNS, (offset + 2*time.Millisecond).Nanoseconds())
	}

	// Pre-skew coordinators (no clock in the response), reversed
	// intervals and holds longer than the round trip contribute nothing.
	before, _ := e.Offset()
	e.Observe(t0, t2, 0, 0)
	e.Observe(t2, t0, server.UnixNano(), 0)
	e.Observe(t0, t0.Add(time.Microsecond), server.UnixNano(), time.Second)
	e.Observe(t0, t0.Add(time.Microsecond), server.UnixNano(), -time.Second)
	if got, _ := e.Offset(); got != before {
		t.Errorf("garbage samples moved the estimate: %d != %d", got, before)
	}

	// A nil estimator is inert (the no-journal worker path).
	var nilE *skewEstimator
	nilE.Observe(t0, t2, server.UnixNano(), 0)
	if _, ok := nilE.Offset(); ok {
		t.Error("nil estimator is not inert")
	}
}

// TestSkewEstimatorExcludesHold is the arithmetic behind
// TestSkewSampleExcludesHold on synthetic stamps: a prompt and a parked
// lease against a coordinator 90s ahead, with unequal flight times out
// and back. The coordinator stamps its clock on reply, so the hold is
// flight in neither direction: each sample's round trip is its unheld
// part, each estimate is within half of that of the true offset, and of
// several samples the tightest is kept, whatever comes after it.
func TestSkewEstimatorExcludesHold(t *testing.T) {
	const offset = 90 * time.Second
	const hold = 300 * time.Millisecond
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	// observe feeds e a round trip sent at t0 that flies out, waits held
	// at the coordinator, and flies back; the coordinator stamps its
	// clock as it replies.
	observe := func(e *skewEstimator, t0 time.Time, out, held, back time.Duration) {
		reply := t0.Add(out + held)
		e.Observe(t0, reply.Add(back), reply.Add(offset).UnixNano(), held)
	}
	var prompt, parked skewEstimator
	observe(&prompt, base, 3*time.Millisecond, 0, time.Millisecond)
	observe(&parked, base, 2*time.Millisecond, hold, time.Millisecond)
	for _, tc := range []struct {
		name string
		e    *skewEstimator
		rtt  time.Duration
	}{{"prompt", &prompt, 4 * time.Millisecond}, {"parked", &parked, 3 * time.Millisecond}} {
		est, ok := tc.e.Offset()
		if rtt := time.Duration(tc.e.rttNS); !ok || rtt != tc.rtt {
			t.Fatalf("%s: sample ok=%v rtt=%v, want its unheld %v", tc.name, ok, rtt, tc.rtt)
		}
		if diff := (time.Duration(est) - offset).Abs(); diff > tc.rtt/2 {
			t.Errorf("%s: estimate off by %v, beyond half its %v round trip", tc.name, diff, tc.rtt)
		}
	}

	// One worker's samples in turn: the parked one is tighter than the
	// prompt one and replaces it; a later, fatter one (a retried
	// request, its stamp a minute out) replaces neither.
	var w skewEstimator
	observe(&w, base, 3*time.Millisecond, 0, time.Millisecond)
	observe(&w, base.Add(time.Second), 2*time.Millisecond, hold, time.Millisecond)
	want, _ := parked.Offset()
	w.Observe(base.Add(2*time.Second), base.Add(3*time.Second), base.Add(time.Minute).UnixNano(), 0)
	if got, _ := w.Offset(); got != want || w.rttNS != (3*time.Millisecond).Nanoseconds() {
		t.Errorf("kept offset %d rtt %dns, want the parked sample's %d and 3ms", got, w.rttNS, want)
	}
}

// shipperSink is an httptest handler collecting journal batches, able to
// fail the first N requests so requeue-on-failure is exercisable.
type shipperSink struct {
	mu      sync.Mutex
	batches []journalBatch
	failN   int
}

func (s *shipperSink) handler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.failN > 0 {
			s.failN--
			// 400 is terminal for the client (no transport retry), so the
			// failure lands on the shipper's own requeue path.
			http.Error(w, "injected", http.StatusBadRequest)
			return
		}
		var b journalBatch
		if err := json.NewDecoder(r.Body).Decode(&b); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.batches = append(s.batches, b)
		httpmon.WriteJSON(w, http.StatusOK, journalAccept{Accepted: len(b.Lines)})
	}
}

func (s *shipperSink) lines() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for _, b := range s.batches {
		for _, l := range b.Lines {
			out = append(out, string(l))
		}
	}
	return out
}

// TestJournalShipperDeliversInOrder: journal lines written through the
// shipper arrive at the coordinator batched, in order, tagged with the
// worker's name and skew estimate, and Close flushes the tail.
func TestJournalShipperDeliversInOrder(t *testing.T) {
	sink := &shipperSink{}
	srv := httptest.NewServer(sink.handler())
	defer srv.Close()

	s := NewJournalShipper(&Client{Base: srv.URL}, "w1", ShipperOptions{
		Skew: func() (int64, bool) { return 1234, true },
	})
	jnl := obs.NewJournal(s)
	for i := 0; i < 20; i++ {
		jnl.Event("worker.job.finish", "n", i)
	}
	s.Close(context.Background())

	got := sink.lines()
	if len(got) != 20 {
		t.Fatalf("delivered %d lines, want 20", len(got))
	}
	for i, l := range got {
		if !strings.Contains(l, `"n":`+jsonInt(i)) {
			t.Fatalf("line %d out of order: %s", i, l)
		}
		if !json.Valid([]byte(l)) {
			t.Fatalf("line %d not valid JSON: %s", i, l)
		}
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for _, b := range sink.batches {
		if b.Worker != "w1" || b.SkewNS != 1234 {
			t.Errorf("batch tag = %q/%d, want w1/1234", b.Worker, b.SkewNS)
		}
	}
	if n := dropped(s); n != 0 {
		t.Errorf("dropped = %d, want 0", n)
	}
}

func jsonInt(i int) string {
	b, _ := json.Marshal(i)
	return string(b)
}

// TestJournalShipperRequeuesOnFailure: a failed POST re-queues its lines
// at the front — nothing reorders, nothing is lost — and the next flush
// delivers them.
func TestJournalShipperRequeuesOnFailure(t *testing.T) {
	sink := &shipperSink{failN: 1}
	srv := httptest.NewServer(sink.handler())
	defer srv.Close()

	s := NewJournalShipper(&Client{Base: srv.URL}, "w1", ShipperOptions{})
	jnl := obs.NewJournal(s)
	jnl.Event("worker.start")
	s.Flush(context.Background()) // eaten by the injected 400
	jnl.Event("worker.job.start")
	s.Close(context.Background())

	got := sink.lines()
	if len(got) != 2 {
		t.Fatalf("delivered %d lines, want 2 (failed batch re-queued)", len(got))
	}
	if !strings.Contains(got[0], "worker.start") || !strings.Contains(got[1], "worker.job.start") {
		t.Errorf("requeue broke ordering: %v", got)
	}
	if n := dropped(s); n != 0 {
		t.Errorf("dropped = %d, want 0", n)
	}
}

// TestJournalShipperOverflowDropsAndCounts: a full buffer sheds the
// newest lines, never blocks, and the cumulative drop count rides on the
// next successful batch — a lost batch cannot lose the loss report. The
// lines arrive in one Write, which buffers them under one lock, so
// neither the half-capacity flush nor the background one can drain the
// buffer between them: exactly shipMaxLines are kept and the rest
// dropped, whenever either flush runs.
func TestJournalShipperOverflowDropsAndCounts(t *testing.T) {
	sink := &shipperSink{}
	srv := httptest.NewServer(sink.handler())
	defer srv.Close()

	s := NewJournalShipper(&Client{Base: srv.URL}, "w1", ShipperOptions{})
	const over = 6
	var lines bytes.Buffer
	jnl := obs.NewJournal(&lines)
	for i := 0; i < shipMaxLines+over; i++ {
		jnl.Event("e", "n", i)
	}
	if _, err := s.Write(lines.Bytes()); err != nil {
		t.Fatal(err)
	}
	if got := dropped(s); got != over {
		t.Fatalf("dropped = %d after %d lines into a %d-line buffer, want %d",
			got, shipMaxLines+over, shipMaxLines, over)
	}
	s.Close(context.Background())

	if delivered := len(sink.lines()); delivered != shipMaxLines {
		t.Errorf("%d lines delivered, want %d", delivered, shipMaxLines)
	}
	sink.mu.Lock()
	last := sink.batches[len(sink.batches)-1]
	sink.mu.Unlock()
	if last.Dropped != over {
		t.Errorf("last batch carried Dropped=%d, want %d", last.Dropped, over)
	}
}

// flipOnce flips one hex digit of the first span ID in the first
// request body it carries — the line stays valid JSON — and passes every
// later request through untouched.
type flipOnce struct{ done atomic.Bool }

func (f *flipOnce) RoundTrip(r *http.Request) (*http.Response, error) {
	if f.done.CompareAndSwap(false, true) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			return nil, err
		}
		i := bytes.Index(body, []byte(`"span":"`)) + len(`"span":"`)
		body[i] ^= 1 // '0'-'9' and 'a'-'f' stay hex digits
		r = r.Clone(r.Context())
		r.Body, r.ContentLength = io.NopCloser(bytes.NewReader(body)), int64(len(body))
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestJournalBatchChecksum: a shipped batch whose bytes changed in
// flight — one hex digit of a span ID, which leaves the line valid JSON
// — is refused whole (422, its lines counted on dist.journal.rejected)
// instead of splicing a wrong span into the record, and the shipper's
// retry then delivers the clean bytes. A batch without a sum, from an
// older worker, is accepted unchecked.
func TestJournalBatchChecksum(t *testing.T) {
	var fleet lockedBuffer
	reg := obs.NewRegistry()
	c := NewCoordinator(Options{Metrics: reg, Journal: obs.NewJournal(&fleet)})
	defer c.Close()
	mux := http.NewServeMux()
	Register(mux, c)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var sent bytes.Buffer
	s := NewJournalShipper(&Client{Base: srv.URL, HTTP: &http.Client{Transport: &flipOnce{}}}, "w1", ShipperOptions{})
	ctx := obs.WithJournal(obs.WithTrace(context.Background(), obs.TraceContext{Trace: "feedface01"}),
		obs.NewJournal(io.MultiWriter(&sent, s)))
	sctx, _ := obs.StartSpan(ctx)
	obs.EndSpan(sctx, "job.finish", time.Now(), nil, "name", "sim:Dir0B@pops")
	s.Flush(context.Background()) // refused: the digit flipped on the way
	if got := reg.Counter("dist.journal.rejected").Value(); got != 1 {
		t.Fatalf("dist.journal.rejected = %d after a flipped batch, want its 1 line", got)
	}
	if len(fleet.Bytes()) != 0 {
		t.Fatalf("a batch failing its sum reached the fleet journal: %s", fleet.Bytes())
	}
	s.Close(context.Background()) // the requeued lines, sent clean

	var want, got struct{ Span string }
	if err := json.Unmarshal(sent.Bytes(), &want); err != nil || want.Span == "" {
		t.Fatalf("worker line %q: %v", sent.Bytes(), err)
	}
	var spliced int
	for _, l := range bytes.Split(bytes.TrimSpace(fleet.Bytes()), []byte("\n")) {
		if bytes.Contains(l, []byte(`"msg":"job.finish"`)) {
			spliced++
			if err := json.Unmarshal(l, &got); err != nil || got.Span != want.Span {
				t.Errorf("fleet journal holds span %q, worker sent %q", got.Span, want.Span)
			}
		}
	}
	if spliced != 1 {
		t.Errorf("fleet journal holds %d job.finish lines, want the retried one", spliced)
	}

	// An older worker's batch carries no sum and is taken as it comes.
	old := []byte(`{"worker":"w0","skew_ns":0,"lines":[{"msg":"worker.start"}]}`)
	if rec := postBody(c.handleJournal, "/api/v1/dist/journal", old); rec.Code != http.StatusOK {
		t.Errorf("batch without a sum answered %d, want 200", rec.Code)
	}
}

// TestAcceptJournalSplice: the coordinator splices worker identity and
// skew into each structurally sane shipped line — bit-exact otherwise —
// and rejects (counting) anything that is not one JSON object.
func TestAcceptJournalSplice(t *testing.T) {
	var log bytes.Buffer
	c := NewCoordinator(Options{Journal: obs.NewJournal(&log)})
	defer c.Close()

	long := `{"pad":"` + strings.Repeat("x", maxJournalLineBytes) + `"}`
	b := &journalBatch{
		Worker: "w1",
		SkewNS: -42,
		Lines: []json.RawMessage{
			json.RawMessage(`{"msg":"worker.job.finish","key":"abc"}`),
			json.RawMessage(`{}`),
			json.RawMessage(`not json`),
			json.RawMessage(`[1,2,3]`),
			json.RawMessage(long),
		},
	}
	if got := c.AcceptJournal(b); got != 2 {
		t.Fatalf("AcceptJournal = %d accepted, want 2", got)
	}
	out := log.String()
	if !strings.Contains(out, `{"msg":"worker.job.finish","key":"abc","worker":"w1","skew_ns":-42}`) {
		t.Errorf("line not spliced bit-exact:\n%s", out)
	}
	if !strings.Contains(out, `{"worker":"w1","skew_ns":-42}`) {
		t.Errorf("empty object not handled:\n%s", out)
	}
	if strings.Contains(out, "not json") || strings.Contains(out, "[1,2,3]") || strings.Contains(out, "pad") {
		t.Errorf("malformed or oversized lines leaked into the fleet journal:\n%s", out)
	}

	snap := c.reg.Snapshot()
	if got := snap.Counters["dist.journal.rejected"]; got != 3 {
		t.Errorf("dist.journal.rejected = %d, want 3", got)
	}
	if got := snap.Counters["dist.journal.lines"]; got != 2 {
		t.Errorf("dist.journal.lines = %d, want 2", got)
	}

	// The worker's stats row reflects the shipment, and the cumulative
	// drop count is monotone: a replayed smaller value never regresses it.
	c.AcceptJournal(&journalBatch{Worker: "w1", SkewNS: 7, Dropped: 5})
	c.AcceptJournal(&journalBatch{Worker: "w1", SkewNS: 7, Dropped: 3})
	var row *WorkerStats
	for i, w := range c.Stats().Workers {
		if w.Name == "w1" {
			row = &c.Stats().Workers[i]
		}
	}
	if row == nil {
		t.Fatal("no stats row for w1")
	}
	if row.ShippedBatches != 3 || row.ShippedLines != 2 || row.ShipDropped != 5 {
		t.Errorf("row = batches %d lines %d dropped %d, want 3/2/5",
			row.ShippedBatches, row.ShippedLines, row.ShipDropped)
	}
	if !row.SkewSet || row.SkewNS != 7 {
		t.Errorf("skew not federated: %+v", row)
	}
}

// TestCoordinatorFederatesHeartbeatCounters: a heartbeat's counter
// snapshot and the lease request's build version land on the worker's
// stats row — the metric-federation path without any HTTP.
func TestCoordinatorFederatesHeartbeatCounters(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(Options{Clock: clk.Now})
	defer c.Close()

	spec := testSpec(0)
	ch := submit(c, spec)
	waitSubmitted(t, c, 1)
	jobs, _, _ := c.leaseWait(context.Background(), "w1", "go1.x-abcdef123456", true, 0)
	if len(jobs) != 1 {
		t.Fatal("no job leased")
	}
	job := jobs[0]
	clk.Advance(100 * time.Millisecond)
	if !c.Heartbeat("w1", job.Lease, map[string]int64{"engine.sims": 7, "dist.ship.lines": 40}) {
		t.Fatal("heartbeat rejected")
	}

	st := c.Stats()
	if len(st.Workers) != 1 {
		t.Fatalf("Workers = %+v, want one row", st.Workers)
	}
	w := st.Workers[0]
	if w.Name != "w1" || w.Version != "go1.x-abcdef123456" {
		t.Errorf("identity not federated: %+v", w)
	}
	if w.Inflight != 1 {
		t.Errorf("Inflight = %d, want 1", w.Inflight)
	}
	if w.Counters["engine.sims"] != 7 || w.Counters["dist.ship.lines"] != 40 {
		t.Errorf("counters not federated: %+v", w.Counters)
	}
	if w.BusyMS != 100 || w.UtilizationPct != 100 {
		t.Errorf("utilization = %dms/%.0f%%, want 100ms/100%%", w.BusyMS, w.UtilizationPct)
	}

	res := localResult(t, spec)
	clk.Advance(50 * time.Millisecond)
	if got := c.Push(goodPush("w1", job, res)); got != PushAccepted {
		t.Fatalf("push = %v", got)
	}
	<-ch
	w = c.Stats().Workers[0]
	if w.Accepted != 1 || w.Inflight != 0 {
		t.Errorf("row after push: %+v", w)
	}
	// Quantiles come from a bucketed histogram: assert presence and
	// ordering, not the exact value.
	if w.PushP50US <= 0 || w.PushP99US < w.PushP50US {
		t.Errorf("push quantiles = p50 %d / p99 %d, want 0 < p50 <= p99", w.PushP50US, w.PushP99US)
	}
}

// lockedBuffer is a journal sink safe for concurrent writes and reads.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return bytes.Clone(b.buf.Bytes())
}

// renderedEvent is one event of a rendered Chrome trace.
type renderedEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	ID   int            `json:"id"`
	Args map[string]any `json:"args"`
}

// renderJournal renders a journal in-process, as GET .../trace and
// dirsimq chrome do, and returns its events and their parents by ID.
func renderJournal(t *testing.T, journal []byte) ([]renderedEvent, map[int]renderedEvent, obs.ChromeStats) {
	t.Helper()
	lines, _, err := obs.ReadJournal(bytes.NewReader(journal))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	st, err := obs.WriteChrome(&out, lines)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []renderedEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("rendered trace is not JSON: %v", err)
	}
	byID := map[int]renderedEvent{}
	for _, ev := range doc.TraceEvents {
		if ev.ID != 0 {
			byID[ev.ID] = ev
		}
	}
	return doc.TraceEvents, byID, st
}

// checkFleetTrace holds a rendered fleet record to the merged-trace
// contract: no orphan parent edge, one dist:queue span per spec, a
// dist:lease span per lease (at least one per spec), and every job span
// a worker shipped nested directly under a dist:lease span. It returns
// how many worker job spans it saw.
func checkFleetTrace(t *testing.T, what string, journal []byte, specs int) int {
	t.Helper()
	evs, byID, st := renderJournal(t, journal)
	if st.Orphans != 0 {
		t.Errorf("%s: %d spans name a parent the record lacks", what, st.Orphans)
	}
	count := map[string]int{}
	workerJobs := 0
	for _, ev := range evs {
		count[ev.Name]++
		if p, ok := ev.Args["parent"].(float64); ok {
			if _, ok := byID[int(p)]; !ok {
				t.Errorf("%s: %q has an orphan parent edge %v", what, ev.Name, p)
			}
		}
		if _, job := ev.Args["kind"]; ev.PID == 1 || ev.Cat != "job" || !job {
			continue
		}
		workerJobs++
		p, _ := ev.Args["parent"].(float64)
		if parent := byID[int(p)]; parent.Name != "dist:lease" || parent.PID != 1 {
			t.Errorf("%s: worker job span %q nests under %q, want dist:lease", what, ev.Name, parent.Name)
		}
	}
	if count["dist:queue"] != specs {
		t.Errorf("%s: %d dist:queue spans, want %d", what, count["dist:queue"], specs)
	}
	if count["dist:lease"] < specs {
		t.Errorf("%s: %d dist:lease spans, want >= %d", what, count["dist:lease"], specs)
	}
	return workerJobs
}

// TestFleetMergedTraceAndShippedJournal is the merged record end to end
// in one process: a traced sweep through a real HTTP fleet leaves ONE
// span tree in the request's journal — coordinator dispatch spans
// bridging to the worker engine spans spliced in under them, zero
// orphans, worker spans on their own process rows — while the shipper
// streams the worker's journal into the fleet journal with worker/skew
// stamps, and the per-worker stats rows close.
func TestFleetMergedTraceAndShippedJournal(t *testing.T) {
	specs := distSpecs(3_000)
	want := localRun(t, specs)

	var coordLog lockedBuffer
	var w1Log bytes.Buffer
	f := startFleet(t, Options{
		LeaseTTL: 2 * time.Second,
		Journal:  obs.NewJournal(&coordLog),
	})
	w1 := &Worker{Name: "w1", Engine: engine.New(engine.Options{}), Version: "test-v1"}
	ship := NewJournalShipper(&Client{Base: f.srv.URL}, "w1", ShipperOptions{Skew: w1.SkewNS})
	w1.Journal, w1.Shipper = obs.NewJournal(io.MultiWriter(&w1Log, ship)), ship
	f.launch(w1)

	var record lockedBuffer
	tc := obs.TraceContext{Trace: "feedface01"}
	ctx := obs.WithJournal(obs.WithTrace(context.Background(), tc), obs.NewJournal(&record).WithTrace(tc))
	lead := engine.New(engine.Options{Remote: f.coord})
	got, err := lead.Results(ctx, engine.Parallel{}, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("spec %d diverged from local run", i)
		}
	}
	// The request's record is complete when the sweep returns: w1 flushed
	// its shipper before every push.
	if n := checkFleetTrace(t, "request journal", record.Bytes(), len(specs)); n < len(specs) {
		t.Errorf("request journal holds %d worker job spans, want >= %d", n, len(specs))
	}
	// A second worker joins after the sweep: its lease polls register it,
	// federating its version even though it never wins a job.
	f.launch(&Worker{Name: "w2", Engine: engine.New(engine.Options{}), Version: "test-v2"})
	deadline := time.Now().Add(30 * time.Second)
	for {
		if ws := f.coord.Stats().Workers; len(ws) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("w2 never registered with the coordinator")
		}
		time.Sleep(time.Millisecond)
	}
	ship.Close(context.Background())
	st := f.coord.Stats()
	f.stop()

	// The fleet journal is a record of its own: the dispatch spans are
	// its roots, and every shipped worker span nests under them.
	checkFleetTrace(t, "fleet journal", coordLog.Bytes(), len(specs))
	var chrome bytes.Buffer
	lines, _, _ := obs.ReadJournal(bytes.NewReader(record.Bytes()))
	if _, err := obs.WriteChrome(&chrome, lines); err != nil {
		t.Fatal(err)
	}
	for _, wantStr := range []string{`"process_name"`, `"dirsimw:w1"`} {
		if !strings.Contains(chrome.String(), wantStr) {
			t.Errorf("Chrome export missing %s", wantStr)
		}
	}

	// --- the worker and shipped journals ---
	// The worker's engine journals each job under the job's trace and
	// remote parent, and no line repeats a key — neither in the worker's
	// journal nor once the coordinator has spliced it into the fleet's.
	for name, jnl := range map[string][]byte{"worker": w1Log.Bytes(), "fleet": coordLog.Bytes(), "request": record.Bytes()} {
		for _, line := range bytes.Split(bytes.TrimSpace(jnl), []byte("\n")) {
			if k, err := obs.RepeatedKey(line); err != nil || k != "" {
				t.Fatalf("%s journal line repeats %q (%v): %s", name, k, err, line)
			}
		}
	}
	finishes := 0
	for _, line := range strings.Split(w1Log.String(), "\n") {
		if strings.Contains(line, `"msg":"job.finish"`) {
			finishes++
			if !strings.Contains(line, `"trace":"feedface01"`) || !strings.Contains(line, `"pspan":"`) {
				t.Errorf("worker job.finish without the job's trace and remote parent: %s", line)
			}
		}
	}
	if finishes < len(specs) {
		t.Errorf("w1 journaled %d job.finish lines, want >= %d", finishes, len(specs))
	}
	out := string(coordLog.Bytes())
	if !strings.Contains(out, `"worker":"w1","skew_ns":`) {
		t.Error("fleet journal has no skew-stamped shipped lines")
	}
	if !strings.Contains(out, `"msg":"worker.job.finish"`) {
		t.Error("w1's job.finish events never reached the fleet journal")
	}
	if !strings.Contains(out, `"msg":"trace.import"`) {
		t.Error("coordinator did not journal its splices into the request's journal")
	}
	// Shipped lines reference the submission trace, so the fleet journal
	// alone reconstructs the cross-process chain.
	if !strings.Contains(out, `"trace":"feedface01","lease":"`) {
		t.Error("shipped lines lost the submission trace")
	}

	// --- federation ---
	rows := map[string]WorkerStats{}
	for _, w := range st.Workers {
		rows[w.Name] = w
	}
	r1, ok1 := rows["w1"]
	r2, ok2 := rows["w2"]
	if !ok1 || !ok2 {
		t.Fatalf("stats rows = %+v, want w1 and w2", st.Workers)
	}
	if r1.Version != "test-v1" || r2.Version != "test-v2" {
		t.Errorf("versions not federated: %q %q", r1.Version, r2.Version)
	}
	if r1.Accepted != int64(len(specs)) {
		t.Errorf("w1 accepted %d, want %d", r1.Accepted, len(specs))
	}
	if r1.ShippedLines == 0 || r1.ShippedBatches == 0 {
		t.Errorf("w1 shipping not federated: %+v", r1)
	}
	if !r1.SkewSet {
		t.Error("w1 skew never reported")
	}
}

// TestFleetMergedTraceSurvivesFaults: under dropped requests, duplicated
// deliveries, and a crashing worker, the sweep still completes
// bit-identical — and the request's record still renders with zero
// orphans, because every lease's span is journaled when the lease
// resolves, whatever its fate, and the workers' spans nest under it.
func TestFleetMergedTraceSurvivesFaults(t *testing.T) {
	specs := distSpecs(3_000)
	want := localRun(t, specs)

	var coordLog lockedBuffer
	f := startFleet(t, Options{
		LeaseTTL:     400 * time.Millisecond,
		DegradeAfter: 5 * time.Second,
		Journal:      obs.NewJournal(&coordLog),
	})
	wire := faults.Config{Seed: 3, Drop: 0.1, Duplicate: 0.1}
	crashWire := wire
	crashWire.Crash = 1
	// The crasher dies on its first leased job; launch it alone so it
	// deterministically wins a lease before the healthy workers drain
	// the queue.
	f.launch(&Worker{
		Name:   "crasher",
		Client: &Client{Base: f.srv.URL, Sleep: tenfold},
		Engine: engine.New(engine.Options{}),
		Inj:    faults.New(crashWire),
	})

	var record lockedBuffer
	tc := obs.TraceContext{Trace: "faultfeed02"}
	ctx := obs.WithJournal(obs.WithTrace(context.Background(), tc), obs.NewJournal(&record).WithTrace(tc))
	lead := engine.New(engine.Options{Remote: f.coord})
	done := make(chan struct{})
	var res resultsAndErr
	go func() {
		defer close(done)
		res.rs, res.err = lead.Results(ctx, engine.Parallel{}, specs)
	}()
	f.waitErr("crasher")
	var ships []*JournalShipper
	for _, name := range []string{"w1", "w2"} {
		ft := NewFaultTransport(name, faults.New(wire), nil)
		client := &Client{Base: f.srv.URL, HTTP: &http.Client{Transport: ft}, Sleep: tenfold}
		ship := NewJournalShipper(client, name, ShipperOptions{})
		ships = append(ships, ship)
		f.launch(&Worker{
			Name:    name,
			Client:  client,
			Engine:  engine.New(engine.Options{}),
			Journal: obs.NewJournal(ship),
			Shipper: ship,
		})
	}
	<-done
	if res.err != nil {
		t.Fatalf("faults must never fail the sweep: %v", res.err)
	}
	for i := range want {
		if !reflect.DeepEqual(res.rs[i], want[i]) {
			t.Fatalf("spec %d diverged under faults", i)
		}
	}
	st := f.coord.Stats()
	f.stop()
	for _, ship := range ships {
		ship.Close(context.Background())
	}

	if st.JobsSubmitted != st.JobsCompleted+st.JobsDegraded+st.JobsFailed {
		t.Errorf("books broken: %+v", st)
	}
	if n := checkFleetTrace(t, "request journal", record.Bytes(), len(specs)); st.JobsCompleted > 0 && n == 0 {
		t.Error("remote completions left no worker spans in the request's record")
	}
	checkFleetTrace(t, "fleet journal", coordLog.Bytes(), len(specs))
	// The crash is visible in the journal-side story too.
	if !strings.Contains(string(coordLog.Bytes()), `"msg":"job.lease.expire"`) {
		t.Error("crashed worker's lease expiry never journaled")
	}
}

// resultsAndErr bundles a Results call's outcome for goroutine capture.
type resultsAndErr struct {
	rs  []*sim.Result
	err error
}

// dropped reads the shipper's cumulative overflow-drop count, the one
// every batch carries.
func dropped(s *JournalShipper) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}
