package obs

import (
	"context"
	"strings"

	"dirsim/internal/event"
)

// InvalBuckets are the histogram bounds for invalidation-count
// distributions — the resolution of the paper's Figure 1, whose headline
// is how much of the mass sits at 0 and 1.
var InvalBuckets = []int64{0, 1, 2, 4, 8, 16, 32}

// ProtoSampler is the sim.Telemetry sink the engine attaches to a
// simulation when protocol sampling is on: every coherence-relevant
// event updates per-scheme counters and the live invalidation histogram
// (the Figure 1 distribution forming in real time on /runz and
// /metrics), and every Nth such event additionally lands as a
// proto.sample instant in the simulation's journal, under its span, so
// Perfetto shows where in the run coherence activity clusters.
//
// A sampler belongs to one simulation goroutine — its unsynchronized
// stride counter requires it — but the metric instruments it updates
// are shared per scheme across the whole registry, so concurrent
// simulations of one scheme accumulate into one family.
type ProtoSampler struct {
	every int64
	n     int64
	ctx   context.Context // the traced, journaled simulation's; nil records metrics only

	cleanWrites  *Counter
	broadcasts   *Counter
	forcedInvals *Counter
	invals       *Histogram
}

// NewProtoSampler builds a sampler for one simulation of scheme,
// journaling an instant every stride coherence events (stride < 1 is
// clamped to 1) under the span ctx carries; without a journal and a
// trace context on ctx it records metrics only.
func NewProtoSampler(ctx context.Context, reg *Registry, scheme string, stride int) *ProtoSampler {
	if stride < 1 {
		stride = 1
	}
	base := "sim.proto." + strings.ToLower(scheme)
	if _, traced := TraceFrom(ctx); !traced || JournalFrom(ctx) == nil {
		ctx = nil
	}
	return &ProtoSampler{
		every:        int64(stride),
		ctx:          ctx,
		cleanWrites:  reg.Counter(base + ".clean_writes"),
		broadcasts:   reg.Counter(base + ".broadcasts"),
		forcedInvals: reg.Counter(base + ".forced_invals"),
		invals:       reg.Histogram(base+".invals_clean_write", InvalBuckets),
	}
}

// Coherence implements sim.Telemetry. out is already filtered to
// coherence-relevant events by the simulation loop.
func (p *ProtoSampler) Coherence(out event.Result) {
	switch out.Type {
	case event.WrHitClean, event.WrMissClean:
		p.cleanWrites.Inc()
		p.invals.Observe(int64(out.Holders))
	}
	if out.Broadcast && !out.Update {
		p.broadcasts.Inc()
	}
	if out.ForcedInval > 0 {
		p.forcedInvals.Add(int64(out.ForcedInval))
	}
	p.n++
	if p.ctx != nil && p.n%p.every == 0 {
		Instant(p.ctx, "proto.sample", nil, "name", out.Type.String(),
			"holders", out.Holders, "inval", out.Inval,
			"broadcast", out.Broadcast, "forced_inval", out.ForcedInval)
	}
}
