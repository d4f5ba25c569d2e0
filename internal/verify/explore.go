// Package verify exhaustively model-checks coherence protocols: it
// enumerates every interleaving of reads and writes by a small number of
// CPUs over a small number of blocks, up to a bounded depth, and runs each
// one through a fresh engine with the value-coherence checker and the
// engine's own invariant validation attached. Where the randomized tests
// in internal/core sample the state space, Explore covers it completely
// for the bounded configuration — the style of exhaustive reachability
// checking (à la Murphi) used to validate real coherence protocols.
package verify

import (
	"fmt"
	"strings"

	"dirsim/internal/core"
	"dirsim/internal/trace"
)

// Op is one step of a schedule: a read or write by one CPU to one block.
type Op struct {
	CPU   uint8
	Write bool
	Block int
}

// String renders the op compactly ("R0@1" = CPU 0 reads block 1).
func (o Op) String() string {
	k := "R"
	if o.Write {
		k = "W"
	}
	return fmt.Sprintf("%s%d@%d", k, o.CPU, o.Block)
}

// Schedule is an operation sequence.
type Schedule []Op

// String renders the schedule as a space-separated op list.
func (s Schedule) String() string {
	parts := make([]string, len(s))
	for i, o := range s {
		parts[i] = o.String()
	}
	return strings.Join(parts, " ")
}

// ref converts an op to a trace reference.
func (o Op) ref() trace.Ref {
	kind := trace.Read
	if o.Write {
		kind = trace.Write
	}
	return trace.Ref{
		Addr: uint64(o.Block) * trace.BlockBytes,
		CPU:  o.CPU,
		Proc: uint16(o.CPU),
		Kind: kind,
	}
}

// Config bounds the exploration.
type Config struct {
	// CPUs and Blocks bound the alphabet; Depth bounds schedule length.
	// The number of schedules explored is (CPUs·Blocks·2)^Depth, so keep
	// the product modest (2 CPUs, 2 blocks, depth 6 ≈ 260k schedules).
	CPUs, Blocks, Depth int
	// CheckEvery replays invariant validation after every op when true;
	// otherwise only at the end of each schedule (faster, still exact
	// for value coherence because the checker is always live).
	CheckEvery bool
}

// Result summarizes one exploration.
type Result struct {
	// Schedules is the number of complete schedules executed.
	Schedules int64
	// Ops is the total operations applied.
	Ops int64
}

// Violation reports the shortest failing schedule found.
type Violation struct {
	Schedule Schedule
	Err      error
}

// Error implements error.
func (v *Violation) Error() string {
	return fmt.Sprintf("verify: schedule [%s]: %v", v.Schedule, v.Err)
}

// Explore runs every schedule of exactly cfg.Depth operations through
// fresh engines built by factory. It returns on the first violation
// (as a *Violation) so the failing schedule can be replayed; schedules
// are enumerated in length-lexicographic order, so the reported schedule
// is minimal among equal-length ones.
//
// Because engines are deterministic, prefix work is shared: the explorer
// walks the schedule tree depth-first, replaying from the root only when
// it backtracks (engines cannot be snapshotted, so a replay costs at most
// Depth operations — cheap at these depths).
func Explore(factory func() core.Protocol, cfg Config) (Result, error) {
	if cfg.CPUs < 1 || cfg.Blocks < 1 || cfg.Depth < 1 {
		return Result{}, fmt.Errorf("verify: non-positive exploration bounds %+v", cfg)
	}
	alphabet := make([]Op, 0, cfg.CPUs*cfg.Blocks*2)
	for c := 0; c < cfg.CPUs; c++ {
		for b := 0; b < cfg.Blocks; b++ {
			alphabet = append(alphabet,
				Op{CPU: uint8(c), Block: b, Write: false},
				Op{CPU: uint8(c), Block: b, Write: true})
		}
	}
	var res Result
	sched := make(Schedule, cfg.Depth)
	var walk func(pos int) error
	walk = func(pos int) error {
		if pos == cfg.Depth {
			res.Schedules++
			return runSchedule(factory, sched, cfg.CheckEvery, &res)
		}
		for _, op := range alphabet {
			sched[pos] = op
			if err := walk(pos + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(0); err != nil {
		return res, err
	}
	return res, nil
}

// runSchedule executes one schedule on a fresh engine.
func runSchedule(factory func() core.Protocol, sched Schedule, checkEvery bool, res *Result) error {
	p := factory()
	checker := core.NewChecker()
	if !core.Attach(p, checker) {
		return fmt.Errorf("verify: %s does not support coherence checking", p.Name())
	}
	for i, op := range sched {
		p.Access(op.ref())
		res.Ops++
		if checkEvery {
			if err := p.CheckInvariants(); err != nil {
				return &Violation{Schedule: append(Schedule(nil), sched[:i+1]...), Err: err}
			}
		} else if err := checker.Err(); err != nil {
			return &Violation{Schedule: append(Schedule(nil), sched[:i+1]...), Err: err}
		}
	}
	if err := p.CheckInvariants(); err != nil {
		return &Violation{Schedule: append(Schedule(nil), sched...), Err: err}
	}
	return nil
}
