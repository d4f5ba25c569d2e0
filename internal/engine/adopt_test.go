package engine

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"dirsim/internal/core"
	"dirsim/internal/faults"
	"dirsim/internal/sim"
	"dirsim/internal/trace"
	"dirsim/internal/workload"
)

// adoptedTrace is a paper trace as a trace file would hand it over:
// materialized, with no Config behind it.
func adoptedTrace(t *testing.T) *trace.Trace {
	t.Helper()
	tr, err := workload.Generate(workload.POPSConfig(4, 5_000))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestAdoptOnce: adopting one trace twice yields one Config and one
// cached trace, and the Config is the adopted kind — no profile, the
// trace's fingerprint as seed, a name Named never returns.
func TestAdoptOnce(t *testing.T) {
	e := New(Options{})
	tr := adoptedTrace(t)
	a, err := e.Adopt(tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Adopt(tr)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("two adoptions gave two Configs:\n%+v\n%+v", a, b)
	}
	if a.Name != workload.AdoptedPrefix+"pops" || a.Seed != tr.Fingerprint() ||
		a.Profile != (workload.Profile{}) || a.CPUs != 4 || a.Refs != tr.Len() {
		t.Errorf("adopted Config %+v", a)
	}
	if n := e.Stats().CachedTraces; n != 1 {
		t.Errorf("engine.cache.traces = %d after two adoptions, want 1", n)
	}
	got, err := e.Trace(context.Background(), a)
	if err != nil || got != tr {
		t.Errorf("Trace(adopted) = %p, %v; want the adopted trace %p", got, err, tr)
	}
	if n := e.Stats().TracesGenerated; n != 0 {
		t.Errorf("adoption generated %d traces", n)
	}
}

// TestAdoptRefusesInvalidTrace: a trace that fails trace.Validate is not
// adopted, and nothing is cached for it.
func TestAdoptRefusesInvalidTrace(t *testing.T) {
	e := New(Options{})
	bad := trace.New("bad", 2)
	bad.Append(trace.Ref{CPU: 5, Kind: trace.Read})
	if _, err := e.Adopt(bad); err == nil {
		t.Error("a reference on CPU 5 of a 2-CPU trace was adopted")
	}
	if _, err := e.Adopt(trace.New("empty", 2)); err == nil {
		t.Error("an empty trace was adopted")
	}
	if n := e.Stats().CachedTraces; n != 0 {
		t.Errorf("refused adoptions cached %d traces", n)
	}
}

// TestAdoptedTraceIsNotRegenerated: once Trim drops an adopted trace, a
// spec over its Config fails with the not-generable error instead of
// generating something else under its name.
func TestAdoptedTraceIsNotRegenerated(t *testing.T) {
	e := New(Options{})
	ctx := context.Background()
	cfg, err := e.Adopt(adoptedTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	e.Trim(workload.Config{})
	_, err = e.Results(ctx, Sequential{}, []SimSpec{{Trace: cfg, Scheme: "Dir0B"}})
	p, ok := AsPartial(err)
	if !ok || !errors.Is(p.Failed["sim:Dir0B@file:pops"], workload.ErrNotGenerable) {
		t.Fatalf("spec over a trimmed adopted trace: %v, want workload.ErrNotGenerable", err)
	}
	if n := e.Stats().TracesGenerated; n != 0 {
		t.Errorf("a miss on an adopted Config generated %d traces", n)
	}
}

// TestAdoptedTraceSurvivesPoison: under fault injection every cache
// store's stamp may be poisoned, which evicts the entry on its next hit
// and recomputes it. An adopted trace cannot be recomputed, so its stamp
// is never poisoned: with Poison 1, every spec over it still succeeds,
// round after round, with the clean engine's results.
func TestAdoptedTraceSurvivesPoison(t *testing.T) {
	ctx := context.Background()
	tr := workload.PingPong(2_000)
	clean := New(Options{})
	poisoned := New(Options{Verify: true, Faults: faults.New(faults.Config{Seed: 1, Poison: 1})})
	var want []*sim.Result
	for round := 0; round < 3; round++ {
		for _, e := range []*Engine{clean, poisoned} {
			cfg, err := e.Adopt(tr)
			if err != nil {
				t.Fatal(err)
			}
			specs := []SimSpec{{Trace: cfg, Scheme: "Dir0B"}, {Trace: cfg, Scheme: "Dragon"}}
			got, err := e.Results(ctx, Sequential{}, specs)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if e == clean {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: results over the adopted trace differ from the clean engine's", round)
			}
		}
	}
	if n := poisoned.Stats().CacheRejected; n < 2 {
		t.Errorf("CacheRejected = %d, want >= 2: the results' stamps must still be poisoned", n)
	}
}

// TestAdoptedResultsMatchSimulateTrace is the reference check: for every
// scheme, Results over an adopted trace is sim.SimulateTrace over the
// same trace, field for field.
func TestAdoptedResultsMatchSimulateTrace(t *testing.T) {
	e := New(Options{})
	tr := adoptedTrace(t)
	cfg, err := e.Adopt(tr)
	if err != nil {
		t.Fatal(err)
	}
	schemes := append(core.Schemes(), "FiniteDirNNB:512b2w")
	specs := make([]SimSpec, len(schemes))
	for i, s := range schemes {
		specs[i] = SimSpec{Trace: cfg, Scheme: s}
	}
	got, err := e.Results(context.Background(), Parallel{Workers: 2}, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range schemes {
		want, err := sim.SimulateTrace(s, tr, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("%s: Results over the adopted trace differs from sim.SimulateTrace", s)
		}
	}
}
