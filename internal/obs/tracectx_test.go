package obs

import (
	"bytes"
	"context"
	"fmt"
	"regexp"
	"strings"
	"testing"
)

func TestNewTraceID(t *testing.T) {
	hex16 := regexp.MustCompile(`^[0-9a-f]{16}$`)
	seen := map[string]bool{}
	for i := 0; i < 32; i++ {
		id := NewTraceID()
		if !hex16.MatchString(id) {
			t.Fatalf("NewTraceID() = %q, want 16 lowercase hex digits", id)
		}
		if seen[id] {
			t.Fatalf("NewTraceID() repeated %q", id)
		}
		seen[id] = true
	}
}

func TestTraceContextStringRoundTrip(t *testing.T) {
	cases := []TraceContext{
		{Trace: "abc123"},
		{Trace: "abc123", Span: 0x1f},
		{Trace: "run-2026.08_x", Span: 0xdeadbeefcafe},
		{Trace: NewTraceID(), Span: 7},
	}
	for _, tc := range cases {
		got, ok := ParseTraceContext(tc.String())
		if !ok || got != tc {
			t.Errorf("ParseTraceContext(%q) = %+v, %v; want %+v", tc.String(), got, ok, tc)
		}
	}
	if s := (TraceContext{}).String(); s != "" {
		t.Errorf("empty context String() = %q, want empty", s)
	}
}

func TestParseTraceContextRejects(t *testing.T) {
	bad := []string{
		"",
		"   ",
		"has space",
		"semi;colon",
		"slash/only/twice/x", // second separator lands in the span hex
		"id/notahexnumber",
		"id/",
		"/1f",
		strings.Repeat("a", maxTraceIDLen+1),
	}
	for _, s := range bad {
		if tc, ok := ParseTraceContext(s); ok {
			t.Errorf("ParseTraceContext(%q) accepted as %+v", s, tc)
		}
	}
	// Surrounding whitespace is tolerated (header values).
	if tc, ok := ParseTraceContext("  abc/2a \n"); !ok || tc.Trace != "abc" || tc.Span != 0x2a {
		t.Errorf("whitespace-wrapped parse = %+v, %v", tc, ok)
	}
}

// FuzzParseTraceContext drives the X-Dirsim-Trace header parser, which
// reads whatever an HTTP client sends: no input panics it, a refusal
// returns the zero context, and an accepted value fits the length bound,
// names a valid trace ID and re-encodes to a string that parses back to
// the same context. The seed corpus (testdata/fuzz) holds the root, span
// and parent forms, "<id>//<parent>" and "<id>/", an oversize value, bad
// ID bytes and non-hex fields.
func FuzzParseTraceContext(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		tc, ok := ParseTraceContext(s)
		if !ok {
			if tc != (TraceContext{}) {
				t.Fatalf("ParseTraceContext(%q) refused with a non-zero context %+v", s, tc)
			}
			return
		}
		if len(strings.TrimSpace(s)) > maxTraceCtxLen || !validTraceID(tc.Trace) || len(tc.Trace) > maxTraceIDLen {
			t.Fatalf("ParseTraceContext(%q) accepted %+v", s, tc)
		}
		enc := tc.String()
		if len(enc) > maxTraceCtxLen {
			t.Fatalf("ParseTraceContext(%q) = %+v, which encodes to %d bytes", s, tc, len(enc))
		}
		if again, ok := ParseTraceContext(enc); !ok || again != tc {
			t.Fatalf("ParseTraceContext(%q) = %+v encodes to %q, which parses to %+v, %v", s, tc, enc, again, ok)
		}
	})
}

func TestTraceContextThroughContext(t *testing.T) {
	ctx := context.Background()
	if _, ok := TraceFrom(ctx); ok {
		t.Fatal("background context claims a trace")
	}
	tc := TraceContext{Trace: "t1", Span: 5}
	ctx = WithTrace(ctx, tc)
	if got, ok := TraceFrom(ctx); !ok || got != tc {
		t.Fatalf("TraceFrom = %+v, %v; want %+v", got, ok, tc)
	}
	// Invalid contexts do not displace a valid one.
	if got, _ := TraceFrom(WithTrace(ctx, TraceContext{})); got != tc {
		t.Errorf("invalid WithTrace displaced the carried trace: %+v", got)
	}
}

// TestTraceAttrs: SpanAttrs appends the trace context's span and remote
// parent in lowercase hex; the trace ID never (the journal supplies it),
// and an untraced context adds nothing.
func TestTraceAttrs(t *testing.T) {
	base := []any{"k", "v"}
	if got := SpanAttrs(context.Background(), base); len(got) != 2 {
		t.Errorf("untraced ctx grew attrs: %v", got)
	}
	ctx := WithTrace(context.Background(), TraceContext{Trace: "t1"})
	if got := SpanAttrs(ctx, base[:2:2]); len(got) != 2 {
		t.Errorf("root trace context grew attrs: %v", got)
	}
	ctx = WithTrace(context.Background(), TraceContext{Trace: "t1", Span: 0xab, Parent: 0xcafe})
	got := SpanAttrs(ctx, nil)
	want := []any{"span", "ab", "pspan", "cafe"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("span attrs = %v, want %v", got, want)
	}
}

// TestJournalWithTrace: a derived journal stamps every line with the
// trace attribute, while the parent stays untagged and keeps the closer.
func TestJournalWithTrace(t *testing.T) {
	var buf bytes.Buffer
	parent := NewJournal(&buf)
	tagged := parent.WithTrace(TraceContext{Trace: "abc123", Span: 9})

	parent.Event("untagged")
	tagged.Event("tagged", "k", "v")
	tagged.Error("tagged.err", context.Canceled)

	events := decodeLines(t, buf.Bytes())
	if len(events) != 3 {
		t.Fatalf("got %d events", len(events))
	}
	if _, ok := events[0]["trace"]; ok {
		t.Errorf("parent journal line gained a trace attr: %v", events[0])
	}
	for _, e := range events[1:] {
		if e["trace"] != "abc123" {
			t.Errorf("tagged line missing trace: %v", e)
		}
	}
	if events[1]["schema"] != float64(SchemaVersion) {
		t.Errorf("derived journal lost the schema attr: %v", events[1])
	}

	// Nil and invalid cases degrade to the receiver.
	var nilJ *Journal
	if nilJ.WithTrace(TraceContext{Trace: "x"}) != nil {
		t.Error("nil journal WithTrace != nil")
	}
	if parent.WithTrace(TraceContext{}) != parent {
		t.Error("invalid trace did not return the parent unchanged")
	}
}
