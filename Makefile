GO ?= go

.PHONY: build vet test race check inline-check shard-equiv soak soak-dist service-smoke bench bench-compare bench-obs loc trace-demo experiments clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The gate run before every commit: compile everything, vet, and run the
# full suite under the race detector.
check: build vet race shard-equiv

# The block table's fast path (blockTable.cached, a compare and an
# index) must stay inlined at every call site in the engine's loops: one
# more field read in it can push it over the compiler's inlining budget
# and put a call back on every data reference. So must the nil test of
# the five Checker methods an unchecked miss or hit reaches (ReadHit,
# FillFromMemory, FillFromCache, Write, WriteBack), at every call site
# in internal/core: a body that grows back into the wrapper puts a call
# on every miss. Fails unless the compiler reports "inlining call to ..."
# on every line that calls one of them.
inline-check:
	@out=$$($(GO) build -gcflags=-m ./internal/core 2>&1) || { echo "$$out"; exit 1; }; \
	lines=$$(grep -n 'blocks\.cached(' internal/core/engine.go | cut -d: -f1); \
	if [ -z "$$lines" ]; then echo "inline-check: engine.go never calls blocks.cached"; exit 1; fi; \
	for n in $$lines; do \
		echo "$$out" | grep -q "^internal/core/engine.go:$$n:[0-9]*: inlining call to .*blockTable.*)\.cached$$" || \
			{ echo "inline-check: blockTable.cached is not inlined at internal/core/engine.go:$$n"; exit 1; }; \
	done; \
	echo "inline-check: blockTable.cached inlined at lines" $$lines "of internal/core/engine.go"; \
	for m in ReadHit FillFromMemory FillFromCache Write WriteBack; do \
		sites=$$(grep -n "\.$$m(" internal/core/*.go | grep -v '_test\.go:' | grep -v 'func (c \*Checker)' | cut -d: -f1,2); \
		if [ -z "$$sites" ]; then echo "inline-check: internal/core never calls Checker.$$m"; exit 1; fi; \
		for s in $$sites; do \
			echo "$$out" | grep -q "^$$s:[0-9]*: inlining call to (\*Checker)\.$$m$$" || \
				{ echo "inline-check: Checker.$$m is not inlined at $$s"; exit 1; }; \
		done; \
		echo "inline-check: Checker.$$m inlined at" $$(echo "$$sites" | wc -l) "call sites in internal/core"; \
	done

# The sharded-simulation equivalence suite on its own under the race
# detector (sim.SimulateSharded is a library function the benchmark
# measures and no binary offers): every paper scheme over the standard
# workloads at shard counts {1,2,3,8,16} bit-identical to sequential, the
# Dir1NB engine against its executable specification, the shard fault
# tests (a core built to panic or fail in one shard -> structured error,
# no goroutine leaks) and the bound on a short sharded run's buffers — plus
# the storage and accounting oracles: the golden fingerprint table of
# every engine, AccessBatch and AccessSparse against per-reference Access
# (and the simulator's use of the sparse stream behind an AccessBatch-only
# wrapper, and of its bufferless fallback for engines with only Access),
# the batched and sparse loops' zero-allocation, the block table's
# footprint bounds and its split lookup (fast path and load), DirCV against DirNNB's classifications and its coarse
# code against the one the entry builds holder by holder, the contention
# replay against its per-reference oracle, float for float — and pricing
# by event class against per-event pricing (every scheme, 4 and 64 CPUs,
# every tariff kind and topology, 2 shards), its rounding rule, its
# allocation-free table, and the integral prices it relies on in every
# model a spec can be priced under.
shard-equiv:
	$(GO) test -race -count=1 \
		-run 'TestSharded|TestShardOf|TestDir1NB(Batch|Checked)?MatchesSpec|TestDir1NBPanics|TestGolden|TestBatch|TestSparse|TestBlock|TestZeroState|TestCoarse|TestReplay|TestClassPricing|TestClassTable' \
		./internal/sim ./internal/core ./internal/contention
	$(GO) test -race -count=1 -run 'TestSpecModelsHaveIntegralPrices' ./internal/engine

# Run the fault-injection soak under the race detector: the widened
# fixed-seed fault matrix (DIRSIM_SOAK=1) plus every fault and hardening
# test in the engine, faults, and CLI packages (truncated and cancelled
# streams included, alone and composed: TestSourcesDeliverTrace). Asserts
# the two fault-run invariants — same seed, same failure set; survivors
# bit-identical to a clean run — with races checked throughout.
soak:
	DIRSIM_SOAK=1 $(GO) test -race -count=1 \
		-run 'Fault|Panic|Retry|Timeout|Truncat|TierCorrupt|CorruptByte|Poison|Cancel|ExecuteAll|Leak|Spec|SourcesDeliverTrace' \
		./internal/engine ./internal/faults ./cmd/experiments

# Run the distributed-execution soak under the race detector: a
# coordinator and an in-process worker fleet under every transport fault
# class (drops, dropped replies, duplicates, wire corruption, injected
# latency, disconnects, partition windows, worker crashes), worker-side
# job panics crossing the wire as structured errors, and a total fleet
# kill degrading to local — asserting same seed same outcome, survivors
# bit-identical to a clean sequential run, balanced dist.* books, and no
# goroutine leaks. The bounded-worker soak runs ten benchmark reps of
# sweeps through one long-lived worker: at most one trace and no result
# held between jobs, no trace regenerated, a flat live heap, no leaked
# goroutine; the worker trim test checks the same bound job by job.
# Also runs the real-process fleet e2e (dirsimd -fleet + two dirsimw
# workers, bit-identical to plain dirsimd) and the multi-process store
# sharing race.
soak-dist:
	DIRSIM_SOAK=1 $(GO) test -race -count=1 \
		-run 'TestDistSoak|TestFleet|TestWorkerTrim|TestStoreMultiProcess' \
		./internal/dist ./cmd/dirsimd ./internal/store

# Smoke the experiment service end to end under the race detector: the
# binary form the store keeps results in (round trip, golden encoding,
# decoder fuzz seeds), the durable store and admission/service unit
# suites, plus the real-process dirsimd tests — two processes sharing one
# store directory (second run bit-identical, zero simulations) and
# per-tenant quota 429s. The drain test asserts no goroutines leak across
# a full serve/drain cycle.
service-smoke:
	$(GO) test -race -count=1 -run 'ResultCodec|FuzzDecodeResult' ./internal/sim
	$(GO) test -race -count=1 ./internal/store ./internal/service ./cmd/dirsimd

bench:
	$(GO) test -bench=. -benchmem ./...

# Judge the working tree against an earlier revision on one benchmark
# workload: build ./bench from both, run PAIRS pairs alternating which
# side goes first (interference on a shared box then hits both alike),
# and let `bench -compare` apply the contract's bounds and the claim
# rule. Everything lands under .bench_build/ (ignored).
#   make bench-compare BASE=HEAD~1 WORKLOAD=sim_replay PAIRS=10
BASE ?= HEAD
WORKLOAD ?= sim_replay
PAIRS ?= 10
SEED ?= 1
COMPARE_DIR := .bench_build/compare
bench-compare:
	rm -rf $(COMPARE_DIR) && mkdir -p $(COMPARE_DIR)/base
	git archive $(BASE) | tar -x -C $(COMPARE_DIR)/base
	cd $(COMPARE_DIR)/base && $(GO) build -o ../bench_base ./bench
	$(GO) build -o $(COMPARE_DIR)/bench_change ./bench
	@for i in $$(seq 1 $(PAIRS)); do \
		if [ $$((i % 2)) = 1 ]; then order="base change"; else order="change base"; fi; \
		for side in $$order; do \
			echo "pair $$i/$(PAIRS): $$side"; \
			$(COMPARE_DIR)/bench_$$side -workload $(WORKLOAD) -seed $(SEED) \
				-out $(COMPARE_DIR)/$$side.jsonl > /dev/null || exit 1; \
		done; \
	done
	$(GO) run ./bench -compare $(COMPARE_DIR)/base.jsonl $(COMPARE_DIR)/change.jsonl

# Measure the observability overhead — an uncached engine run without
# and with the full tracing stack (a TraceContext and a journal on the
# context), and with that journal also shipped over HTTP — and write
# BENCH_obs.json.
bench-obs:
	DIRSIM_BENCH_JSON=1 $(GO) test -run TestWriteObsBenchJSON -v .

# Non-test Go lines per package, largest first — the figure ROADMAP
# tracks and every simplicity PR states before and after.
loc:
	@git ls-files '*.go' | grep -v '_test\.go$$' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; if (!sub("/[^/]*$$", "", d)) d = "."; n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k1,1nr

# Produce a sample execution trace from the POPS workload: trace-demo.json
# is Chrome trace-event JSON — open it in Perfetto (ui.perfetto.dev) or
# chrome://tracing to see the trace generation and the scheme
# simulations (see EXPERIMENTS.md, "Reading a run trace").
trace-demo:
	$(GO) run ./cmd/dirsim -workload pops -cpus 4 -refs 200000 \
		-schemes Dir1NB,Dir0B,Dragon -tracejson trace-demo.json
	@echo "wrote trace-demo.json — open it at https://ui.perfetto.dev"

# Regenerate every table and figure concurrently on all cores.
experiments:
	$(GO) run ./cmd/experiments -run all -parallel 0

clean:
	$(GO) clean ./...
