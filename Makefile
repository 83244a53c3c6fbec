GO ?= go

.PHONY: all build test check cover fuzz soak soak-equivalence bench bench-core bench-core-sweep bench-guard bench-load bench-scaling bench-repro repro arena

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the per-PR verification gate: formatting and static analysis,
# the facade-coverage rule (every internal type reachable from the public
# surface must be re-exported — run first and by name so a facade hole
# fails loudly before the long race run), the full test suite under the
# race detector (the platform tests exercise real TCP concurrency, and the
# parallel payment phase and sweep runner exercise their scratch state), a
# bounded run of the reference/optimized SSAM differential fuzzer and of
# the canonical-bid-decoder vs encoding/json fuzzer (their seed corpora
# also run as plain tests, so both equivalences are standing gates), then a quick bench-repro smoke run proving the
# end-to-end figure pipeline and its wall-clock report still work, the
# arena smoke run, and the coverage floor. CI runs it as one step.
check:
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then \
		echo "gofmt needed on:"; echo "$$fmt"; exit 1; fi
	$(GO) vet ./...
	$(GO) test -run '^TestFacadeCoverage$$' -count=1 .
	$(GO) test -race ./...
	$(GO) test -run '^$$' -fuzz '^FuzzSSAMDifferential$$' -fuzztime 10s \
		./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeEnvelope$$' -fuzztime 10s \
		./internal/platform
	$(GO) run ./cmd/repro -fig all -quick -opt-time 300ms \
		-bench-json /tmp/BENCH_repro_smoke.json >/dev/null
	$(MAKE) arena
	$(MAKE) cover

# arena is the mechanism head-to-head smoke gate: race SSAM, the
# posted-price mechanism, and the futures+spot double auction on the same
# seeded quick workload through the pluggable Mechanism API, writing the
# result JSON to /tmp. The full-scale table is committed as
# results/ARENA.json (regenerate with `go run ./cmd/repro -fig arena
# -arena-json results/ARENA.json`).
arena:
	$(GO) run ./cmd/repro -fig arena -quick -seed 1 \
		-arena-json /tmp/ARENA_smoke.json >/dev/null
	@echo "mechanism arena smoke OK (/tmp/ARENA_smoke.json)"

# cover enforces the statement-coverage floor on the mechanism-critical
# packages: the auction kernel, the TCP platform, the federation, the
# topology-driven workload engine with its discrete-event simulator, and
# the offline optimum (branch-and-bound and its LP solver) behind every
# performance ratio.
COVER_FLOOR ?= 70
cover:
	@$(GO) test -count=1 -cover \
		./internal/core ./internal/platform ./internal/federation \
		./internal/workload ./internal/sim ./internal/lp ./internal/optimal \
		| awk -v floor=$(COVER_FLOOR) ' \
		/coverage:/ { \
			pct = 0 + substr($$5, 1, length($$5)-1); \
			printf "%-40s %5.1f%% (floor %d%%)\n", $$2, pct, floor; \
			if (pct < floor) bad = 1; \
		} \
		END { if (bad) { print "coverage below floor"; exit 1 } }'

# fuzz gives each fuzzer a bounded randomized run on top of its committed
# seed corpus (the corpus itself already runs as plain tests). Wired into
# CI as a non-blocking job: a new crasher is a finding, not a regression.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzSSAMDifferential$$' -fuzztime $(FUZZTIME) \
		./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzReadAudit$$' -fuzztime $(FUZZTIME) \
		./internal/platform
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeEnvelope$$' -fuzztime $(FUZZTIME) \
		./internal/platform
	$(GO) test -run '^$$' -fuzz '^FuzzReadInstance$$' -fuzztime $(FUZZTIME) \
		./internal/workload

# soak-equivalence is the chaos gate. For each scenario, chaos.Equivalent
# runs the audited baseline — serial and crash-free, with the shadow
# auditor machine-checking every round — then each of the scenario's
# variants, and exits non-zero unless the baseline is violation-free and
# every variant is byte-identical to it (same WAL bytes, same audit log
# where audited, same ψ-state hash, same OnlineSummary). An audited
# scenario's variant is a second audited run: churn is 250 rounds of
# randomized agent churn and faults; overload drives the platform with
# demand precomputed from the cascading-overload service graph at 3x
# work. The crash scenario's variant kills the platform at every scripted
# crash point (mid-gather, pre-announce, post-announce) and recovers from
# snapshot + WAL-suffix replay; the pipeline scenario's settles round t
# while round t+1 gathers; both also run an untraced pass and a
# payment-parallelism-4 pass: observing and parallelising must not change
# outcomes. Last, a deliberately broken payment rule must make the
# auditor object with exit status 2.
soak-equivalence:
	$(GO) build -o /tmp/edgeauction-chaos ./cmd/chaos
	/tmp/edgeauction-chaos -scenario churn -quiet
	/tmp/edgeauction-chaos -scenario overload -quiet
	/tmp/edgeauction-chaos -scenario crash -quiet
	/tmp/edgeauction-chaos -scenario pipeline -quiet
	@/tmp/edgeauction-chaos -scenario churn -quiet -break-payments >/dev/null; code=$$?; \
	if [ $$code -ne 2 ]; then echo "auditor failed to catch the broken payment rule (exit $$code, want 2)"; exit 1; \
	else echo "broken payment rule caught as expected"; fi

# soak runs every builtin chaos scenario through the same gate, including
# a long churn run.
soak: soak-equivalence
	/tmp/edgeauction-chaos -scenario churn -rounds 1000 -quiet
	/tmp/edgeauction-chaos -scenario faults -quiet
	/tmp/edgeauction-chaos -scenario capacity -quiet
	/tmp/edgeauction-chaos -scenario federation -quiet

bench:
	$(GO) test -bench=. -benchmem

# bench-core records the SSAM selection/payment kernel micro-benchmark grid
# (bids × needy × covers-density; serial Parallelism=1 specs plus Par*
# GOMAXPROCS-fan-out specs) into results/BENCH_core.json, appending a
# labelled run so before/after kernel numbers live side by side. Use
# BENCH_CORE_LABEL=seed-baseline (or any label) to name the run, and
# BENCH_CORE_PROCS=1,2,4,8 to sweep GOMAXPROCS levels (each level is a
# separate (label, gomaxprocs) entry in the JSON).
BENCH_CORE_LABEL ?= optimized
BENCH_CORE_JSON ?= results/BENCH_core.json
BENCH_CORE_PROCS ?=
bench-core:
	$(GO) test -run '^TestBenchCoreJSON$$' -count=1 -timeout 60m \
		-bench-core-json $(BENCH_CORE_JSON) \
		-bench-core-label $(BENCH_CORE_LABEL) \
		-bench-core-procs '$(BENCH_CORE_PROCS)' .

# bench-core-sweep records the grid at GOMAXPROCS ∈ {1,2,4,8} — the
# multicore characterization. On a multicore host the Par* specs speed up
# with the level; bench-scaling turns that into a gate.
bench-core-sweep:
	$(MAKE) bench-core BENCH_CORE_PROCS=1,2,4,8

# bench-load records the end-to-end platform load benchmark into
# results/BENCH_load.json: an in-process server driven by the multiplexed
# loadgen fleet at each BENCH_LOAD_AGENTS size, serial RunRound vs
# pipelined RunPipelined, alternating passes with the median pass per mode
# (single-box throughput is too noisy for one-shot comparisons). The run
# itself asserts the pipelined engine beats serial at >=10k agents and
# that allocation per agent-round stays under the pooled-path ceiling.
# BENCH_LOAD_AGENTS=1000,10000,100000 records the 100k point too (needs
# `ulimit -n` headroom for ~500 extra sockets and a few extra minutes).
BENCH_LOAD_JSON ?= results/BENCH_load.json
BENCH_LOAD_AGENTS ?= 1000,10000
BENCH_LOAD_PASSES ?= 3
bench-load:
	$(GO) test -run '^TestBenchLoadJSON$$' -count=1 -v -timeout 60m \
		-bench-load-json $(BENCH_LOAD_JSON) \
		-bench-load-agents '$(BENCH_LOAD_AGENTS)' \
		-bench-load-passes $(BENCH_LOAD_PASSES) .

# bench-guard re-runs the nil-tracer SSAMSelect/SSAMPayments/MSOARound hot
# paths and fails if they regress more than BENCH_GUARD_TOL (fraction)
# against the committed "optimized" run in results/BENCH_core.json at the
# matching GOMAXPROCS level (nearest recorded level when there is no exact
# match), or allocate more per op. This is both the observability layer's
# zero-cost-when-disabled gate and the kernel's no-regression gate.
# It then replays the load-benchmark grid against the committed
# results/BENCH_load.json: neither engine may shed more than
# BENCH_LOAD_GUARD_TOL of its recorded rounds/sec, and the pipelined
# engine must still beat serial at >=10k agents.
BENCH_GUARD_TOL ?= 0.05
BENCH_LOAD_GUARD_TOL ?= 0.10
bench-guard:
	$(GO) test -run '^TestBenchCoreGuard$$' -count=1 -v \
		-bench-guard -bench-guard-tolerance $(BENCH_GUARD_TOL) .
	$(GO) test -run '^TestBenchLoadGuard$$' -count=1 -v -timeout 60m \
		-bench-load-guard \
		-bench-load-guard-tolerance $(BENCH_LOAD_GUARD_TOL) .

# bench-scaling verifies the multicore claims against a recorded GOMAXPROCS
# sweep: the parallel payment fan-out and the experiment-harness trial
# fan-out must be ≥ BENCH_SCALING_MIN× faster at GOMAXPROCS=4 than at 1.
# Run `make bench-core-sweep` on a multicore host first (the CI multicore
# job does both and uploads the JSON as an artifact).
BENCH_SCALING_JSON ?= results/BENCH_core.json
BENCH_SCALING_MIN ?= 2.0
bench-scaling:
	$(GO) test -run '^TestBenchScaling$$' -count=1 -v \
		-bench-scaling-json $(BENCH_SCALING_JSON) \
		-bench-scaling-min $(BENCH_SCALING_MIN) .

# bench-repro records the end-to-end wall clock of every figure at paper
# scale into results/BENCH_repro.json (per-figure millis, seed, trial
# parallelism, GOMAXPROCS). Use TRIAL_PARALLELISM=1 for a serial baseline.
TRIAL_PARALLELISM ?= 0
bench-repro:
	$(GO) run ./cmd/repro -fig all -trial-parallelism $(TRIAL_PARALLELISM) \
		-bench-json results/BENCH_repro.json

repro:
	$(GO) run ./cmd/repro -fig all -quick
