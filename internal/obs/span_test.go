package obs

import (
	"bytes"
	"context"
	"errors"
	"strconv"
	"sync"
	"testing"
	"time"
)

// spanJournal returns a traced, journaled context writing into buf.
func spanJournal(buf *bytes.Buffer) context.Context {
	tc := TraceContext{Trace: "t1"}
	return WithJournal(WithTrace(context.Background(), tc), NewJournal(buf).WithTrace(tc))
}

// readLines parses a journal buffer with the shared reader.
func readLines(t *testing.T, data []byte) []Line {
	t.Helper()
	lines, skipped, err := ReadJournal(bytes.NewReader(data))
	if err != nil || skipped != 0 {
		t.Fatalf("ReadJournal: %d skipped, %v", skipped, err)
	}
	return lines
}

// TestEndSpanWritesOneLine: a span has no record until it ends, and then
// exactly one line: its msg and attrs, its own span ID, its parent's,
// and dur_us; an error writes it at error level.
func TestEndSpanWritesOneLine(t *testing.T) {
	var buf bytes.Buffer
	ctx, ok := StartSpan(spanJournal(&buf))
	if !ok {
		t.Fatal("StartSpan on a traced, journaled context opened no span")
	}
	if buf.Len() != 0 {
		t.Fatalf("starting a span wrote %q", buf.String())
	}
	EndSpan(ctx, "job.finish", time.Now().Add(-3*time.Millisecond), errors.New("boom"), "name", "x")
	lines := readLines(t, buf.Bytes())
	if len(lines) != 1 {
		t.Fatalf("%d lines, want 1", len(lines))
	}
	l := lines[0]
	tc, _ := TraceFrom(ctx)
	if l.Str("span") != strconv.FormatUint(tc.Span, 16) || l.Str("name") != "x" || l.Trace != "t1" {
		t.Errorf("span line = %s", l.Raw)
	}
	if _, ok := l.Attrs["pspan"]; ok {
		t.Errorf("root span names a parent: %s", l.Raw)
	}
	if d, _ := l.Num("dur_us"); d < 3000 {
		t.Errorf("dur_us = %d, want >= 3000", d)
	}
	if l.Level != "ERROR" || l.Str("error") != "boom" {
		t.Errorf("failed span line = %s", l.Raw)
	}
}

// TestStartSpanNestsUnderContext: the context a span runs under carries
// it, so a child span and an instant opened there name it as pspan, and
// an event inside it names it with ParentAttrs.
func TestStartSpanNestsUnderContext(t *testing.T) {
	var buf bytes.Buffer
	outer, _ := StartSpan(spanJournal(&buf))
	inner, _ := StartSpan(outer)
	Instant(inner, "job.retry", nil, "attempt", 0)
	EndSpan(inner, "job.attempt", time.Now(), nil)
	EndSpan(outer, "job.finish", time.Now(), nil)
	lines := readLines(t, buf.Bytes())
	instant, attempt, job := lines[0], lines[1], lines[2]
	if attempt.Str("pspan") != job.Str("span") || instant.Str("pspan") != attempt.Str("span") {
		t.Errorf("nesting broken:\n%s\n%s\n%s", instant.Raw, attempt.Raw, job.Raw)
	}
	if _, ok := instant.Num("dur_us"); ok || instant.Str("span") == "" {
		t.Errorf("instant line = %s", instant.Raw)
	}
	got := ParentAttrs(inner, nil)
	if len(got) != 2 || got[1] != attempt.Str("span") {
		t.Errorf("ParentAttrs = %v, want pspan %s", got, attempt.Str("span"))
	}
	// A remote parent is the parent of the first span opened under it.
	remote := WithTrace(spanJournal(&buf), TraceContext{Trace: "t1", Parent: 0xbeef})
	if child, _ := StartSpan(remote); SpanAttrs(child, nil)[3] != "beef" {
		t.Errorf("span under a remote parent = %v", SpanAttrs(child, nil))
	}
}

// TestSpanWithoutJournalIsInert: without a journal, or without a trace
// context, StartSpan mints nothing and EndSpan and Instant write nothing.
func TestSpanWithoutJournalIsInert(t *testing.T) {
	tc := WithTrace(context.Background(), TraceContext{Trace: "t1"})
	for _, ctx := range []context.Context{context.Background(), tc} {
		got, ok := StartSpan(ctx)
		if ok || got != ctx {
			t.Errorf("StartSpan without a journal opened a span")
		}
		EndSpan(got, "job.finish", time.Now(), nil)
		Instant(got, "job.retry", nil)
	}
	var buf bytes.Buffer
	untraced := WithJournal(context.Background(), NewJournal(&buf))
	if _, ok := StartSpan(untraced); ok {
		t.Error("StartSpan without a trace context opened a span")
	}
	EndSpan(untraced, "store.load", time.Now(), nil)
	if l := readLines(t, buf.Bytes()); len(l) != 1 || l[0].Str("span") != "" {
		t.Errorf("untraced span line = %v, want one line without IDs", l)
	}
}

// TestConcurrentSpans: spans ended on many goroutines at once land as
// whole lines with distinct IDs, every one of them rendered.
func TestConcurrentSpans(t *testing.T) {
	var buf bytes.Buffer
	root := spanJournal(&buf)
	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, _ := StartSpan(root)
			EndSpan(ctx, "job.finish", time.Now(), nil, "name", "job")
		}()
	}
	wg.Wait()
	lines := readLines(t, buf.Bytes())
	ids := map[string]bool{}
	for _, l := range lines {
		ids[l.Str("span")] = true
	}
	if len(lines) != n || len(ids) != n {
		t.Fatalf("%d lines with %d distinct span IDs, want %d", len(lines), len(ids), n)
	}
	st, err := WriteChrome(&bytes.Buffer{}, lines)
	if err != nil || st.Spans != n || st.Orphans != 0 {
		t.Errorf("rendered %+v (%v), want %d spans", st, err, n)
	}
}
