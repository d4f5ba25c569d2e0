package obs

import (
	"bytes"
	"testing"
)

// TestTraceContextParentRoundTrip: the three-part wire form
// <trace>/<span>/<parent> (and the span-less <trace>//<parent>) carries
// the remote parent span across processes and parses back exactly.
func TestTraceContextParentRoundTrip(t *testing.T) {
	cases := []TraceContext{
		{Trace: "abc123", Span: 0x1f, Parent: 0xbeef},
		{Trace: "abc123", Parent: 0xbeef}, // parent without a span
		{Trace: NewTraceID(), Span: 7, Parent: 9},
		{Trace: "abc123", Span: 0x1f}, // two-part form unchanged
	}
	for _, tc := range cases {
		got, ok := ParseTraceContext(tc.String())
		if !ok || got != tc {
			t.Errorf("ParseTraceContext(%q) = %+v, %v; want %+v", tc.String(), got, ok, tc)
		}
	}
	if s := (TraceContext{Trace: "x", Span: 5}).String(); s != "x/5" {
		t.Errorf("parentless String() = %q, want two-part x/5", s)
	}
	if s := (TraceContext{Trace: "x", Parent: 0xa}).String(); s != "x//a" {
		t.Errorf("spanless String() = %q, want x//a", s)
	}
}

func TestParseTraceContextParentRejects(t *testing.T) {
	bad := []string{
		"id/1f/",           // dangling separator
		"id/1f/nothex",     // bad parent hex
		"id//",             // neither span nor parent
		"id/1f/2f/3f",      // too many parts
		"id/1f/" + wideHex, // parent overflows uint64
	}
	for _, s := range bad {
		if tc, ok := ParseTraceContext(s); ok {
			t.Errorf("ParseTraceContext(%q) accepted as %+v", s, tc)
		}
	}
}

const wideHex = "fffffffffffffffff" // 17 hex digits, one past uint64

// TestWithParentJournalAttr: a journal derived from a parented context
// tags lines with pspan, so shipped worker lines can be re-attached to
// the coordinator's dispatch span by ID.
func TestWithParentJournalAttr(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	tc := TraceContext{Trace: "tr1", Span: 1, Parent: 0xcafe}
	j.WithTrace(tc).Event("x")
	if !bytes.Contains(buf.Bytes(), []byte(`"trace":"tr1"`)) {
		t.Errorf("journal line missing trace attr: %s", buf.String())
	}
}
