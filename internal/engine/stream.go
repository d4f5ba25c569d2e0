package engine

import (
	"context"

	"dirsim/internal/trace"
)

// cancellableSource wraps a Source so long replays of materialized traces
// observe context cancellation, once per batch.
type cancellableSource struct {
	trace.Source
	ctx context.Context
}

func cancellable(ctx context.Context, src trace.Source) trace.Source {
	return &cancellableSource{Source: src, ctx: ctx}
}

func (c *cancellableSource) NextBatch(buf []trace.Ref) int {
	if c.ctx.Err() != nil {
		return 0
	}
	return c.Source.NextBatch(buf)
}
