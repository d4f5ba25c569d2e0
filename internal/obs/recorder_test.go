package obs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestRecorderJobFlow(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(nil, NewJournal(&buf))

	ctx := context.Background()
	rec.JobScheduled(ctx, "trace:pops", "trace", "abc123")
	rec.JobStarted(ctx, "trace:pops", "trace", "abc123")
	rec.JobFinished(ctx, "trace:pops", "trace", "abc123", 5*time.Millisecond, false, nil)
	rec.JobFinished(ctx, "sim:Dir0B@pops", "sim", "def456", 7*time.Millisecond, true, nil)
	rec.JobFinished(ctx, "merge:Dir0B", "merge", "", time.Millisecond, false, errors.New("boom"))

	events := decodeLines(t, buf.Bytes())
	var msgs []string
	for _, e := range events {
		msgs = append(msgs, e["msg"].(string))
	}
	want := []string{"job.scheduled", "job.start", "job.finish", "job.finish", "job.finish"}
	if len(msgs) != len(want) {
		t.Fatalf("events = %v, want %v", msgs, want)
	}
	for i := range want {
		if msgs[i] != want[i] {
			t.Errorf("event %d = %q, want %q", i, msgs[i], want[i])
		}
	}
	if events[4]["level"] != "ERROR" || events[4]["error"] != "boom" {
		t.Errorf("failed job not journaled at error level: %v", events[4])
	}

	// Job kinds fold into the phase breakdown: trace → generate,
	// sim → simulate, merge → merge.
	phases := map[string]PhaseStat{}
	for _, s := range rec.Phases() {
		phases[s.Phase] = s
	}
	if phases["generate"].Count != 1 || phases["generate"].Total != 5*time.Millisecond {
		t.Errorf("generate phase = %+v", phases["generate"])
	}
	if phases["simulate"].Count != 1 || phases["simulate"].Total != 7*time.Millisecond {
		t.Errorf("simulate phase = %+v", phases["simulate"])
	}
	if phases["merge"].Count != 1 {
		t.Errorf("merge phase = %+v", phases["merge"])
	}

	// And into per-phase duration histograms on the registry.
	h := rec.Registry().Histogram("engine.job.simulate.us", nil)
	if h.Count() != 1 {
		t.Errorf("simulate histogram count = %d, want 1", h.Count())
	}
}

func TestRecorderSpan(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(NewRegistry(), NewJournal(&buf))
	sp := rec.StartSpan("experiment", "table4")
	d := sp.End(nil)
	if d < 0 {
		t.Errorf("span duration negative: %v", d)
	}
	events := decodeLines(t, buf.Bytes())
	if len(events) != 2 || events[0]["msg"] != "experiment.start" ||
		events[1]["msg"] != "experiment.finish" || events[1]["name"] != "table4" {
		t.Errorf("span events wrong: %v", events)
	}
	if len(rec.Phases()) != 1 || rec.Phases()[0].Phase != "experiment" {
		t.Errorf("phases = %v", rec.Phases())
	}
}

// TestRecorderConcurrentUse exercises one shared Recorder — spans,
// engine-observer callbacks, and fault events — from many goroutines at
// once, the way a parallel experiment run drives it. Run under -race
// this pins the recorder's concurrency safety; afterwards the journal
// must still be whole-line JSONL and the phase breakdown must account
// for every span and job.
func TestRecorderConcurrentUse(t *testing.T) {
	var buf syncBuffer
	rec := NewRecorder(NewRegistry(), NewJournal(&buf))
	const goroutines, iters = 12, 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := WithTrace(context.Background(), TraceContext{Trace: fmt.Sprintf("t%d", g)})
			for i := 0; i < iters; i++ {
				id := fmt.Sprintf("sim:S%d@w%d", g, i)
				sp := rec.StartSpan("experiment", id)
				rec.JobScheduled(ctx, id, "sim", "k")
				rec.JobStarted(ctx, id, "sim", "k")
				rec.JobFinished(ctx, id, "sim", "k", time.Microsecond, i%2 == 0, nil)
				rec.JobRetried(ctx, id, 1, time.Microsecond, errors.New("transient"))
				sp.End(nil)
			}
		}()
	}
	wg.Wait()

	decodeLines(t, buf.Bytes()) // every journal line is valid JSON
	phases := map[string]PhaseStat{}
	for _, s := range rec.Phases() {
		phases[s.Phase] = s
	}
	if n := phases["experiment"].Count; n != goroutines*iters {
		t.Errorf("experiment spans = %d, want %d", n, goroutines*iters)
	}
	if n := phases["simulate"].Count; n != goroutines*iters {
		t.Errorf("simulate jobs = %d, want %d", n, goroutines*iters)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the slog handler
// serializes its own writes, but the test's final read must not race
// with them either.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Bytes()
}

func TestHitRatio(t *testing.T) {
	if got := HitRatio(0, 0); got != 0 {
		t.Errorf("HitRatio(0,0) = %v", got)
	}
	if got := HitRatio(3, 1); got != 0.75 {
		t.Errorf("HitRatio(3,1) = %v", got)
	}
}

func TestManifestWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.json")
	m := &RunManifest{
		Command:       "experiments",
		WallSeconds:   1.5,
		Config:        ManifestConfig{Run: "all", Refs: 400000, CPUs: 4, Parallel: 8, Executor: "parallel"},
		Experiments:   []ExperimentRun{{ID: "table4", Seconds: 0.8}},
		Engine:        map[string]int64{"engine.cache.hits": 10},
		CacheHitRatio: 0.5,
		Phases:        []PhaseStat{{Phase: "simulate", Count: 4, Total: time.Second}},
	}
	if err := m.Write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back RunManifest
	if err := unmarshalStrict(data, &back); err != nil {
		t.Fatalf("manifest does not round-trip: %v", err)
	}
	if back.Config.Run != "all" || back.Experiments[0].ID != "table4" ||
		back.Engine["engine.cache.hits"] != 10 || back.Phases[0].Phase != "simulate" {
		t.Errorf("round-tripped manifest wrong: %+v", back)
	}
}
