package engine

import (
	"context"

	"dirsim/internal/trace"
)

// cancellableSource wraps a Source so long replays of materialized traces
// observe context cancellation; the per-reference path checks every
// checkEvery references, the batched path once per batch.
type cancellableSource struct {
	src trace.Source
	b   trace.BatchSource
	ctx context.Context
	n   int
}

const checkEvery = 8192

func cancellable(ctx context.Context, src trace.Source) trace.Source {
	return &cancellableSource{src: src, b: trace.Batched(src), ctx: ctx}
}

func (c *cancellableSource) Next() (trace.Ref, bool) {
	c.n++
	if c.n%checkEvery == 0 && c.ctx.Err() != nil {
		return trace.Ref{}, false
	}
	return c.src.Next()
}

func (c *cancellableSource) NextBatch(buf []trace.Ref) int {
	if c.ctx.Err() != nil {
		return 0
	}
	return c.b.NextBatch(buf)
}

func (c *cancellableSource) CPUCount() int { return c.src.CPUCount() }
