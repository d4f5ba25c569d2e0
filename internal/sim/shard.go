package sim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"dirsim/internal/core"
	"dirsim/internal/trace"
)

// shardWindow is the depth of each shard's work queue in batches. It
// bounds how far the splitter can run ahead of a slow shard: the pipeline
// holds at most shards*(shardWindow+1) reference buffers, made on demand
// and recycled through one free list for the life of the run, so a full
// queue stalls the splitter instead of growing memory.
const shardWindow = 8

// ShardOf maps a block to its shard in [0, shards). The hash is a fixed
// multiplicative mix (no per-run seed), so the partition is deterministic
// across runs and processes: a fault in shard k's core replays against
// the same block population. Every reference to a block lands on the same
// shard, which is the whole trick — the paper's directory state is
// per-block independent, so per-shard protocol cores never share state.
func ShardOf(b trace.Block, shards int) int {
	x := uint64(b) * 0x9E3779B97F4A7C15
	x ^= x >> 32
	return int(x % uint64(shards))
}

// ShardError reports the failure of one shard worker. It is the structured
// error SimulateSharded returns (lowest failing shard wins, so the error is
// deterministic when several shards fail); the engine wraps it into its
// JobError like any other simulation failure, preserving the shard index
// and panic stack for the journal.
type ShardError struct {
	// Shard is the failing worker's index.
	Shard int
	// Panicked reports that the shard died by panic rather than by an
	// error return; Stack then holds the recovered goroutine stack.
	Panicked bool
	Stack    string
	// Err is the underlying failure (the recovered panic value when it
	// was an error, such as an injected *faults.Panic).
	Err error
}

func (e *ShardError) Error() string {
	if e.Panicked {
		return fmt.Sprintf("sim: shard %d panicked: %v", e.Shard, e.Err)
	}
	return fmt.Sprintf("sim: shard %d: %v", e.Shard, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// SimulateSharded runs one trace through shards concurrent protocol cores
// and merges their tallies into a single Result, bit-identical to
// Simulate over the same stream at every shard count (the shard
// equivalence suite asserts exactly this).
//
// build constructs one protocol core per shard; cores must be fresh (no
// shared state). References are partitioned by block (ShardOf), so each
// core sees the full time-ordered subsequence for its blocks and no
// per-block state ever crosses goroutines. A single splitter goroutine —
// the caller's — pulls batches from src, routes references into per-shard
// buffers, and hands full buffers to the shard's bounded work queue;
// buffers are made only when none is free and recycle through one shared
// free list, so a short trace allocates only the buffers it fills, the
// steady state nothing, and a slow shard back-pressures the splitter.
//
// Merging is deterministic: per-shard results combine in ascending shard
// index via Merge. Counters and histograms are integer sums over disjoint
// reference subsets, and bus-cycle breakdowns sum cost-table entries that
// are integer-valued floats (exact in float64 far beyond any trace
// length), so addition order cannot change a single bit.
//
// A finite-cache engine (core.MissCauses reports it) is refused with an
// error: its state is not independent per block, since a fill evicts
// across blocks, so no partition by block could reproduce its run.
//
// opts.Shards <= 0 resolves to runtime.GOMAXPROCS(0). Check mode attaches
// one checker per core and keeps the per-shard invariant cadence. On a
// shard failure the remaining shards drain cleanly (no goroutine leaks)
// and the lowest failing shard's *ShardError is returned.
func SimulateSharded(build func() (core.Protocol, error), src trace.Source, opts Options) (*Result, error) {
	shards := opts.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}

	// Build every core up front so constructor errors surface before any
	// goroutine starts.
	protos := make([]core.Protocol, shards)
	checkers := make([]*core.Checker, shards)
	var scheme string
	for s := range protos {
		p, err := build()
		if err != nil {
			return nil, err
		}
		if s == 0 {
			scheme = p.Name()
			if _, _, _, finite := core.MissCauses(p); finite {
				return nil, fmt.Errorf("sim: %s cannot be sharded: its state is not independent per block", scheme)
			}
			if src.CPUCount() > p.CPUs() {
				return nil, fmt.Errorf("sim: trace has %d CPUs but %s engine simulates %d",
					src.CPUCount(), p.Name(), p.CPUs())
			}
		} else if p.Name() != scheme {
			return nil, fmt.Errorf("sim: shard cores disagree on scheme: %s vs %s",
				p.Name(), scheme)
		}
		if opts.Check {
			checkers[s] = core.NewChecker()
			if !core.Attach(p, checkers[s]) {
				return nil, fmt.Errorf("sim: %s does not support coherence checking", p.Name())
			}
		}
		protos[s] = p
	}

	// Per-shard bounded work queues plus one shared free list with room
	// for every buffer the pipeline may hold. take, the splitter's only
	// source of buffers, returns a free one, else a new one while fewer
	// than cap(free) exist, else the next one a shard hands back.
	work := make([]chan []trace.Ref, shards)
	for s := range work {
		work[s] = make(chan []trace.Ref, shardWindow)
	}
	free := make(chan []trace.Ref, shards*(shardWindow+1))
	made := 0
	take := func() []trace.Ref {
		if len(free) == 0 && made < cap(free) {
			made++
			return make([]trace.Ref, 0, DefaultBatchRefs)
		}
		return <-free
	}

	results := make([]*Result, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	wg.Add(shards)
	for s := 0; s < shards; s++ {
		go func(s int) {
			defer wg.Done()
			res, err := runShard(s, protos[s], checkers[s], work[s], free, opts)
			results[s], errs[s] = res, err
			// A failed worker stops consuming early; drain what the
			// splitter still sends so it never blocks on a full queue or
			// an exhausted free list.
			for buf := range work[s] {
				free <- buf[:0]
			}
		}(s)
	}

	// The splitter: route references by block hash into per-shard buffers.
	in := make([]trace.Ref, DefaultBatchRefs)
	cur := make([][]trace.Ref, shards)
	for s := range cur {
		cur[s] = take()
	}
	for {
		k := src.NextBatch(in)
		if k == 0 {
			break
		}
		for _, r := range in[:k] {
			s := ShardOf(r.Block(), shards)
			buf := append(cur[s], r)
			if len(buf) == DefaultBatchRefs {
				work[s] <- buf
				cur[s] = take()
			} else {
				cur[s] = buf
			}
		}
	}
	for s := range work {
		if len(cur[s]) > 0 {
			work[s] <- cur[s]
		} else {
			free <- cur[s]
		}
		close(work[s])
	}
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	merged, err := Merge(results...)
	if err != nil {
		return nil, err
	}
	// Shard results carry no trace names; Merge's name-joining would
	// produce "+" separators between empty strings.
	merged.Trace = ""
	return merged, nil
}

// runShard is one worker: it owns one protocol core and one Result, and
// consumes batches until the splitter closes the queue. Any panic —
// protocol bug or injected fault — is recovered into a *ShardError so the
// other shards finish their drain undisturbed.
func runShard(shard int, p core.Protocol, checker *core.Checker, work <-chan []trace.Ref,
	free chan<- []trace.Ref, opts Options) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			rerr, ok := r.(error)
			if !ok {
				rerr = fmt.Errorf("panic: %v", r)
			}
			res = nil
			err = &ShardError{Shard: shard, Panicked: true, Stack: string(debug.Stack()), Err: rerr}
		}
	}()
	res = newResult(p.Name(), opts)
	every := int64(opts.InvariantEvery)
	if every <= 0 {
		every = 8192
	}
	sparse := sparseBatches.Get().(*sparseBatch)
	defer sparse.release()
	var classes classTable
	var n int64
	for buf := range work {
		if opts.Check {
			// Per-reference like the sequential checked path, so a
			// violation is pinned to this shard's exact reference count.
			for _, r := range buf {
				out := p.Access(r)
				res.record(&out, 1, &classes)
				n++
				if n%every == 0 {
					if cerr := p.CheckInvariants(); cerr != nil {
						free <- buf[:0]
						return nil, &ShardError{Shard: shard,
							Err: fmt.Errorf("after %d refs: %w", n, cerr)}
					}
				}
			}
		} else {
			res.simulateBatch(p, buf, sparse, &classes)
			n += int64(len(buf))
		}
		free <- buf[:0]
	}
	if opts.Check {
		if cerr := p.CheckInvariants(); cerr != nil {
			return nil, &ShardError{Shard: shard, Err: cerr}
		}
		if cerr := checker.Err(); cerr != nil {
			return nil, &ShardError{Shard: shard, Err: cerr}
		}
	}
	res.price(&classes)
	res.ColdMisses, res.CoherenceMisses, res.CapacityMisses, _ = core.MissCauses(p)
	return res, nil
}
