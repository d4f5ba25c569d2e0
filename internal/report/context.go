package report

import (
	"context"
	"time"

	"dirsim/internal/engine"
	"dirsim/internal/obs"
	"dirsim/internal/sim"
	"dirsim/internal/trace"
	"dirsim/internal/workload"
)

// Context supplies the inputs an experiment needs: the three standard
// traces at the configured size, plus larger-machine traces for the
// Section 6 scaling studies. All simulation requests are submitted
// through an execution engine, which deduplicates and caches traces and
// results by content hash — e.g. Table 4 and Figure 2 share one
// simulation per scheme, the same economy the paper notes (one run per
// protocol, many cost models) — and, under a parallel executor, runs
// independent simulations concurrently. A Context is safe for concurrent
// use by multiple experiments.
type Context struct {
	// Refs is the approximate length of each generated trace.
	Refs int
	// CPUs is the machine size for the headline experiments (4, to
	// match the paper's ATUM setup).
	CPUs int
	// Check enables coherence checking during the runs (slower).
	Check bool

	eng  *engine.Engine
	exec engine.Executor
	base context.Context
}

// NewContext returns a context with the given trace size, backed by a
// private engine and the Sequential executor (the historical serial
// behaviour). Sensible defaults are applied for non-positive arguments
// (400k references, 4 CPUs).
func NewContext(refs, cpus int) *Context {
	return NewContextWith(refs, cpus, nil, nil)
}

// NewContextWith is NewContext with an explicit execution engine and
// strategy; nil values fall back to a private engine and the Sequential
// executor. Passing a shared engine lets concurrent experiment batches
// share one result cache; passing engine.Parallel runs each experiment's
// independent simulations concurrently.
func NewContextWith(refs, cpus int, eng *engine.Engine, exec engine.Executor) *Context {
	if refs <= 0 {
		refs = 400_000
	}
	if cpus <= 0 {
		cpus = 4
	}
	if eng == nil {
		eng = engine.New(engine.Options{})
	}
	if exec == nil {
		exec = engine.Sequential{}
	}
	return &Context{Refs: refs, CPUs: cpus, eng: eng, exec: exec}
}

// WithBase sets the base context every engine submission derives from.
// A journal carried here (obs.WithJournal) receives the experiment
// brackets and every line the run's engine jobs write; an
// obs.TraceContext carried here gives those jobs the run's trace. nil
// (the default) means context.Background().
func (c *Context) WithBase(ctx context.Context) { c.base = ctx }

func (c *Context) ctx() context.Context {
	if c.base != nil {
		return c.base
	}
	return context.Background()
}

// RunExperiment runs one experiment through the context. With a journal
// on the base context (see WithBase) the run is bracketed by
// experiment.start / experiment.finish events, from which obs.Report
// takes its state and time; without one it is exactly e.Run. It returns
// the section rendered as text.
func (c *Context) RunExperiment(e Experiment) (string, error) {
	jnl := obs.JournalFrom(c.ctx())
	jnl.Event("experiment.start", "name", e.ID, "title", e.Title)
	start := time.Now()
	s, err := e.Run(c)
	var out string
	if err == nil {
		out = s.String()
	}
	if d := time.Since(start).Microseconds(); err != nil {
		jnl.Error("experiment.finish", err, "name", e.ID, "dur_us", d)
	} else {
		jnl.Event("experiment.finish", "name", e.ID, "dur_us", d)
	}
	return out, err
}

// StandardConfigs returns the generation configs of the standard
// POPS/THOR/PERO traces at the given machine size.
func (c *Context) StandardConfigs(cpus int) []workload.Config {
	return workload.StandardConfigs(cpus, c.Refs)
}

// Traces returns the standard POPS/THOR/PERO traces at the headline
// machine size, materialized at most once per engine.
func (c *Context) Traces() ([]*trace.Trace, error) { return c.TracesAt(c.CPUs) }

// TracesAt returns the standard traces regenerated for a different
// machine size (the scaling studies). It fails only when the engine does,
// e.g. when the base context is cancelled.
func (c *Context) TracesAt(cpus int) ([]*trace.Trace, error) {
	cfgs := c.StandardConfigs(cpus)
	out := make([]*trace.Trace, len(cfgs))
	for i, cfg := range cfgs {
		t, err := c.eng.Trace(c.ctx(), cfg)
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

// specs returns one spec per standard workload at cpus: the group whose
// merge is scheme's standard result at that machine size, with the trace
// transformation filter (see engine.SimSpec.Filter).
func (c *Context) specs(scheme string, cpus int, filter string) []engine.SimSpec {
	cfgs := c.StandardConfigs(cpus)
	specs := make([]engine.SimSpec, len(cfgs))
	for i, cfg := range cfgs {
		specs[i] = engine.SimSpec{Trace: cfg, Scheme: scheme, Check: c.Check, Filter: filter}
	}
	return specs
}

// MergedGroups returns each group's merged result, in order, running all
// groups as one engine batch; every simulation and merge is cached
// across experiments.
func (c *Context) MergedGroups(groups ...[]engine.SimSpec) ([]*sim.Result, error) {
	return c.eng.Merge(c.ctx(), c.exec, groups)
}

// Merged returns the scheme's result merged over the standard traces.
func (c *Context) Merged(scheme string) (*sim.Result, error) {
	rs, err := c.MergedGroups(c.specs(scheme, c.CPUs, ""))
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// mergedEach returns each scheme's Merged result, in order, from one
// engine batch, so the family schemes among them share walks.
func (c *Context) mergedEach(schemes ...string) ([]*sim.Result, error) {
	groups := make([][]engine.SimSpec, len(schemes))
	for i, scheme := range schemes {
		groups[i] = c.specs(scheme, c.CPUs, "")
	}
	return c.MergedGroups(groups...)
}

// PerTrace returns each scheme's per-trace results on the standard
// traces, in order, from one engine batch.
func (c *Context) PerTrace(schemes ...string) ([][]*sim.Result, error) {
	var specs []engine.SimSpec
	for _, scheme := range schemes {
		specs = append(specs, c.specs(scheme, c.CPUs, "")...)
	}
	rs, err := c.eng.Results(c.ctx(), c.exec, specs)
	if err != nil {
		return nil, err
	}
	per := make([][]*sim.Result, len(schemes))
	for i, n := 0, len(rs)/len(schemes); i < len(per); i++ {
		per[i] = rs[i*n : (i+1)*n]
	}
	return per, nil
}

// Experiment reproduces one paper artifact.
type Experiment struct {
	// ID is the registry key ("table4", "fig1", ...).
	ID string
	// Title describes the artifact.
	Title string
	// Run performs the simulations and returns the comparison as tables
	// and notes; Section.String renders it.
	Run func(c *Context) (*Section, error)
}
