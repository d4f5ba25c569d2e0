package obs

import (
	"context"
	"math/rand/v2"
	"time"
)

// A span's one record is the journal line written when it ends: its ID
// as "span", its parent's as "pspan", and "dur_us", stamped at the
// instant dur_us runs to, so it started at the line's time minus dur_us.
// An instant is a span line without dur_us.

// NewSpanID returns a random non-zero 64-bit span ID. Drawn, not
// counted, IDs minted by a coordinator and its workers never collide.
func NewSpanID() uint64 {
	for {
		if id := rand.Uint64(); id != 0 {
			return id
		}
	}
}

// StartSpan opens a span for the work done under the returned context,
// whose trace context is ctx's Child; EndSpan on it writes the span's
// line. Without a journal and a trace context on ctx it returns ctx and
// false, minting nothing.
func StartSpan(ctx context.Context) (context.Context, bool) {
	if JournalFrom(ctx) == nil {
		return ctx, false
	}
	tc, ok := TraceFrom(ctx)
	if !ok {
		return ctx, false
	}
	return WithTrace(ctx, tc.Child()), true
}

// EndSpan writes the line of the span on ctx, begun at start and ending
// now: msg with attrs, "dur_us", "span" and "pspan"; a non-nil err
// writes it at error level. No-op without a journal.
func EndSpan(ctx context.Context, msg string, start time.Time, err error, attrs ...any) {
	jnl := JournalFrom(ctx)
	if jnl == nil {
		return
	}
	end := time.Now()
	jnl.at(end, msg, err, SpanAttrs(ctx, append(attrs, "dur_us", end.Sub(start).Microseconds())))
}

// Instant journals an instant under ctx's enclosing span. A non-nil err
// writes it at error level. No-op without a journal.
func Instant(ctx context.Context, msg string, err error, attrs ...any) {
	jnl := JournalFrom(ctx)
	if jnl == nil {
		return
	}
	if tc, ok := TraceFrom(ctx); ok {
		attrs = tc.Child().Attrs(attrs)
	}
	jnl.at(time.Now(), msg, err, attrs)
}
