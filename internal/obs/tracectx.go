package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"strconv"
	"strings"
)

// TraceContext is the request-scoped identity that causally links
// everything one submission touches: the HTTP request (or CLI run) that
// originated the work, the admission wait, every engine job it schedules,
// every store-tier load and store, and every journal line any of them
// emit. It travels through context.Context (WithTrace/TraceFrom), over
// HTTP in the X-Dirsim-Trace header, and into journals as the "trace"
// attribute — so `dirsimq follow -trace <id>` can reconstruct the whole
// causal chain from JSONL journals alone.
//
// Trace is the stable request/run identifier (16 lowercase hex digits
// when generated here; inbound headers may carry any reasonable token).
// Span, when non-zero, is the span enclosing the work: a random ID
// (NewSpanID) that its journal line carries as "span" (span.go).
//
// Parent, when non-zero, is the span Span nests under, or, while Span is
// zero, the one the first span opened here will: a coordinator sends a
// lease's span as Parent in X-Dirsim-Trace, and the worker's job spans
// journal it as their "pspan".
type TraceContext struct {
	Trace  string
	Span   uint64
	Parent uint64
}

// maxTraceIDLen bounds accepted trace identifiers, keeping journal lines
// and response headers sane when callers mint their own.
const maxTraceIDLen = 64

// maxTraceCtxLen bounds the whole encoded context: a maximal trace ID
// plus two 16-hex-digit span fields and their separators.
const maxTraceCtxLen = maxTraceIDLen + 2*(1+16)

// NewTraceID returns a fresh random 64-bit trace identifier in fixed-width
// lowercase hex.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the platform is broken; fall back to
		// a constant rather than panicking an observability path.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// NewTraceContext returns a root trace context with a fresh trace ID and
// no enclosing span.
func NewTraceContext() TraceContext { return TraceContext{Trace: NewTraceID()} }

// Valid reports whether the context names a trace.
func (tc TraceContext) Valid() bool { return tc.Trace != "" }

// Child returns the context of a new span nested in this one. An
// invalid context returns itself: untraced work mints no IDs.
func (tc TraceContext) Child() TraceContext {
	if !tc.Valid() {
		return tc
	}
	return TraceContext{Trace: tc.Trace, Span: NewSpanID(), Parent: tc.enclosing()}
}

// enclosing is the span new work here nests under.
func (tc TraceContext) enclosing() uint64 {
	if tc.Span != 0 {
		return tc.Span
	}
	return tc.Parent
}

// String encodes the context in the journal- and header-friendly text
// form: "<trace>" for a root, "<trace>/<span-hex>" inside a span, and
// "<trace>/<span-hex>/<parent-hex>" when a remote parent crosses the
// wire (the span field is left empty — "<trace>//<parent-hex>" — when
// only the parent is set). The empty context encodes as "".
func (tc TraceContext) String() string {
	if !tc.Valid() {
		return ""
	}
	if tc.Span == 0 && tc.Parent == 0 {
		return tc.Trace
	}
	s := tc.Trace + "/"
	if tc.Span != 0 {
		s += strconv.FormatUint(tc.Span, 16)
	}
	if tc.Parent != 0 {
		s += "/" + strconv.FormatUint(tc.Parent, 16)
	}
	return s
}

// ParseTraceContext decodes the String form (an inbound X-Dirsim-Trace
// header, a journal attribute). ok is false for an empty, oversized, or
// malformed value — callers then mint a fresh context instead. Both the
// pre-parent two-field form and the bare trace ID parse, so mixed-version
// fleets interoperate.
func ParseTraceContext(s string) (TraceContext, bool) {
	s = strings.TrimSpace(s)
	if s == "" || len(s) > maxTraceCtxLen {
		return TraceContext{}, false
	}
	id, rest, hasSpan := strings.Cut(s, "/")
	if !validTraceID(id) || len(id) > maxTraceIDLen {
		return TraceContext{}, false
	}
	tc := TraceContext{Trace: id}
	if !hasSpan {
		return tc, true
	}
	spanHex, parentHex, hasParent := strings.Cut(rest, "/")
	if spanHex != "" {
		span, err := strconv.ParseUint(spanHex, 16, 64)
		if err != nil {
			return TraceContext{}, false
		}
		tc.Span = span
	} else if !hasParent {
		// "<trace>/" with nothing after the separator is malformed.
		return TraceContext{}, false
	}
	if hasParent {
		parent, err := strconv.ParseUint(parentHex, 16, 64)
		if err != nil {
			return TraceContext{}, false
		}
		tc.Parent = parent
	}
	return tc, true
}

// validTraceID accepts the token shapes a trace ID may take: letters,
// digits, '-', '_', '.' — wide enough for caller-minted IDs, narrow
// enough to embed safely in headers, journals and file names.
func validTraceID(id string) bool {
	if id == "" {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// traceCtxKey carries a TraceContext through a context.Context.
type traceCtxKey struct{}

// WithTrace returns a context carrying tc; callees recover it with
// TraceFrom. An invalid tc returns ctx unchanged.
func WithTrace(ctx context.Context, tc TraceContext) context.Context {
	if !tc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, tc)
}

// TraceFrom returns the trace context carried by ctx, or ok == false when
// there is none (untraced work).
func TraceFrom(ctx context.Context) (TraceContext, bool) {
	tc, ok := ctx.Value(traceCtxKey{}).(TraceContext)
	return tc, ok
}

// SpanAttrs appends the span on ctx and its parent as "span" and "pspan"
// (lowercase hex), the attributes of the span's own line. The trace ID
// is the journal's to supply (Journal.WithTrace), so no line carries it
// twice; untraced contexts leave attrs unchanged.
func SpanAttrs(ctx context.Context, attrs []any) []any {
	tc, ok := TraceFrom(ctx)
	if !ok {
		return attrs
	}
	return tc.Attrs(attrs)
}

// Attrs appends the context's Span and Parent to a journal attribute
// list as "span" and "pspan": the attributes of the span's own line.
func (tc TraceContext) Attrs(attrs []any) []any {
	if tc.Span != 0 {
		attrs = append(attrs, "span", strconv.FormatUint(tc.Span, 16))
	}
	if tc.Parent != 0 {
		attrs = append(attrs, "pspan", strconv.FormatUint(tc.Parent, 16))
	}
	return attrs
}

// ParentAttrs appends the span enclosing ctx's work as "pspan", the
// attribute of an event line inside a span (job.start, cache.reject).
func ParentAttrs(ctx context.Context, attrs []any) []any {
	tc, ok := TraceFrom(ctx)
	if !ok {
		return attrs
	}
	return TraceContext{Parent: tc.enclosing()}.Attrs(attrs)
}
