package exectrace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// remoteTrace builds a worker-shaped trace: a root job span with a
// nested child on one lane and an instant on the same lane.
func remoteTrace() *Tracer {
	tr := New()
	l := tr.Lane()
	root := l.Span(0, "job", "sim:Dir1NB@pops")
	child := l.Span(root.ID(), "attempt", "attempt:0")
	l.Instant(child.ID(), "engine", "chunk", "n", 1)
	child.End(nil)
	root.End(nil)
	l.Release()
	return tr
}

// TestWireRoundTripReparents: a worker's exported spans import into the
// coordinator's tracer with IDs remapped, roots adopted under the
// dispatch span, and the merged event log orphan-free.
func TestWireRoundTripReparents(t *testing.T) {
	remote := remoteTrace()
	w := remote.ExportWire()
	if w == nil || len(w.Events) != 3 {
		t.Fatalf("ExportWire = %+v, want 3 events", w)
	}

	local := New()
	ll := local.Lane()
	dispatch := ll.Span(0, "dist", "dist:lease")
	st := local.Import(w, ImportOpts{
		Parent: dispatch.ID(), PID: 2, LanePrefix: "w1",
	})
	dispatch.End(nil)
	ll.Release()

	if st.Events != 3 {
		t.Fatalf("ImportStats = %+v, want 3 events", st)
	}
	if st.Reparented != 1 {
		t.Errorf("Reparented = %d, want 1 (the remote root)", st.Reparented)
	}
	evs := local.Events()
	if len(evs) != 4 {
		t.Fatalf("merged trace has %d events, want 4", len(evs))
	}
	if orphans := Orphans(evs); len(orphans) != 0 {
		t.Fatalf("merged trace has orphans: %+v", orphans)
	}
	byName := map[string]Event{}
	for _, ev := range evs {
		byName[ev.Name] = ev
	}
	d, root, child, inst := byName["dist:lease"], byName["sim:Dir1NB@pops"], byName["attempt:0"], byName["chunk"]
	if root.Parent != d.ID {
		t.Errorf("remote root parent = %d, want dispatch %d", root.Parent, d.ID)
	}
	if child.Parent != root.ID || inst.Parent != child.ID {
		t.Errorf("remote structure lost: child.Parent=%d root.ID=%d inst.Parent=%d child.ID=%d",
			child.Parent, root.ID, inst.Parent, child.ID)
	}
	// Remote IDs were remapped into the local space: no collisions.
	seen := map[uint64]bool{}
	for _, ev := range evs {
		if ev.ID != 0 {
			if seen[ev.ID] {
				t.Errorf("duplicate span ID %d after import", ev.ID)
			}
			seen[ev.ID] = true
		}
	}
	if root.PID != 2 || child.PID != 2 || d.PID != 0 {
		t.Errorf("imported PIDs: root=%d child=%d local=%d, want 2/2/0", root.PID, child.PID, d.PID)
	}
	if len(inst.Args) != 1 || inst.Args[0].Key != "n" {
		t.Errorf("instant args lost: %+v", inst.Args)
	}
}

// TestWireImportUnresolvedParent: a parent reference that didn't survive
// the trip (span dropped from the batch) re-parents under opts.Parent —
// an import can never introduce orphans, even from a mangled wire.
func TestWireImportUnresolvedParent(t *testing.T) {
	w := &WireTrace{
		EpochUnixNS: time.Now().UnixNano(),
		Events: []WireEvent{
			{Name: "stranded", Ph: "X", TS: 10, Dur: 5, TID: 1, ID: 77, Parent: 999},
		},
	}
	local := New()
	ll := local.Lane()
	anchor := ll.Span(0, "dist", "anchor")
	st := local.Import(w, ImportOpts{Parent: anchor.ID(), PID: 3})
	anchor.End(nil)
	ll.Release()

	if st.Reparented != 1 {
		t.Errorf("Reparented = %d, want 1", st.Reparented)
	}
	if orphans := Orphans(local.Events()); len(orphans) != 0 {
		t.Fatalf("orphans after unresolved-parent import: %+v", orphans)
	}
}

// TestWireImportSkewShiftsOntoLocalClock: OffsetNS converts the remote
// wall clock to the local one, and timestamps that would land before
// the local epoch clamp to zero (counted).
func TestWireImportSkewShiftsOntoLocalClock(t *testing.T) {
	local := New()
	base := local.Events() // force nothing; epoch anchored at New()
	_ = base

	// A remote whose clock runs 1ms behind the local epoch: event at
	// remote epoch+2000ns, remote epoch = local epoch - 1ms, skew +1ms.
	w := &WireTrace{
		EpochUnixNS: time.Now().Add(-time.Millisecond).UnixNano(),
		Events: []WireEvent{
			{Name: "a", Ph: "X", TS: 2000, Dur: 1, TID: 1, ID: 1},
		},
	}
	st := local.Import(w, ImportOpts{PID: 2, OffsetNS: int64(2 * time.Millisecond)})
	if st.Clamped != 0 {
		t.Errorf("Clamped = %d, want 0 with a generous positive offset", st.Clamped)
	}

	// The same wire with a hugely negative offset must clamp, not go
	// negative (Chrome JSON rejects negative ts).
	st = local.Import(w, ImportOpts{PID: 2, OffsetNS: -int64(time.Hour)})
	if st.Clamped != 1 {
		t.Errorf("Clamped = %d, want 1", st.Clamped)
	}
	for _, ev := range local.Events() {
		if ev.TS < 0 {
			t.Errorf("negative timestamp survived import: %+v", ev)
		}
	}
}

// TestWireImportLanesAreDedicated: imported lanes never recycle into the
// free list — a later local Lane() must not inherit an import's pid or
// label.
func TestWireImportLanesAreDedicated(t *testing.T) {
	local := New()
	local.Import(remoteTrace().ExportWire(), ImportOpts{PID: 5, LanePrefix: "w9"})
	l := local.Lane()
	s := l.Span(0, "local", "after-import")
	s.End(nil)
	l.Release()
	for _, ev := range local.Events() {
		if ev.Name == "after-import" && ev.PID != 0 {
			t.Errorf("local span inherited imported pid %d", ev.PID)
		}
	}
}

// TestWireJSONRoundTrip: the wire form survives JSON (the shape that
// actually crosses the HTTP push).
func TestWireJSONRoundTrip(t *testing.T) {
	w := remoteTrace().ExportWire()
	b, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var back WireTrace
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.EpochUnixNS != w.EpochUnixNS || len(back.Events) != len(w.Events) {
		t.Fatalf("round trip lost data: %+v vs %+v", back, w)
	}
	for i := range w.Events {
		a, b := back.Events[i], w.Events[i]
		if a.Name != b.Name || a.Ph != b.Ph || a.TS != b.TS || a.Dur != b.Dur ||
			a.TID != b.TID || a.ID != b.ID || a.Parent != b.Parent || len(a.Args) != len(b.Args) {
			t.Errorf("event %d diverged: %+v vs %+v", i, a, b)
		}
	}
}

// TestMultiProcessChromeExport: after RegisterProcess + import, the
// Chrome JSON carries process_name metadata for both pids and thread
// names for the imported lanes, so Perfetto renders one row per process.
func TestMultiProcessChromeExport(t *testing.T) {
	local := New()
	ll := local.Lane()
	root := ll.Span(0, "job", "sweep")
	local.RegisterProcess(2, "dirsimw:w1")
	local.Import(remoteTrace().ExportWire(), ImportOpts{
		Parent: root.ID(), PID: 2, LanePrefix: "w1",
	})
	root.End(nil)
	ll.Release()

	var buf bytes.Buffer
	if err := local.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`"process_name"`, `"dirsimw:w1"`, `"dirsim"`, `"w1/lane-01"`, `"pid": 2`, `"pid": 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Chrome JSON missing %s", want)
		}
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
}

// TestRecordSpanRetroDates: RecordSpan writes a complete span with an
// explicit pre-minted ID and caller-supplied interval — the coordinator
// retro-dates dist:queue and dist:lease spans at resolution time.
func TestRecordSpanRetroDates(t *testing.T) {
	tr := New()
	id := tr.AllocID()
	if id == 0 {
		t.Fatal("AllocID returned 0")
	}
	l := tr.Lane()
	// The interval must postdate the tracer's epoch (earlier times clamp
	// to 0); in production the queue/lease spans always do — the tracer
	// outlives the request that creates them.
	start := time.Now()
	end := start.Add(30 * time.Millisecond)
	l.RecordSpan(id, 0, "dist", "dist:lease", start, end, "", Arg{Key: "worker", Val: "w1"})
	l.RecordSpan(0, 0, "dist", "ignored", start, end, "") // id 0 is a no-op
	l.Release()

	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.ID != uint64(id) || ev.Ph != 'X' || ev.Name != "dist:lease" {
		t.Errorf("recorded span wrong: %+v", ev)
	}
	wantDur := (30 * time.Millisecond).Nanoseconds()
	if ev.Dur < wantDur-int64(5*time.Millisecond) || ev.Dur > wantDur+int64(5*time.Millisecond) {
		t.Errorf("Dur = %dns, want ~%dns", ev.Dur, wantDur)
	}
	// Reversed intervals clamp to zero duration instead of going negative.
	l2 := tr.Lane()
	l2.RecordSpan(tr.AllocID(), 0, "dist", "rev", end, start, "")
	l2.Release()
	for _, ev := range tr.Events() {
		if ev.Dur < 0 {
			t.Errorf("negative duration: %+v", ev)
		}
	}
}
