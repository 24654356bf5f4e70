GO ?= go

.PHONY: all build vet fmt-check docs-check test race verify loc bench bench-smoke bench-json bench-mvm bench-pairs bench-serve bench-fault bench-obs bench-fleet bench-hybrid bench-chaos bench-capacity cover fuzz experiments examples clean

all: build vet test

# Tier-1 verify path: format + docs cross-reference check + build + vet +
# tests, then the same tests again under the race detector (the parallel
# simulation engine must stay race-clean).
verify: fmt-check docs-check build vet test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fail if any tracked Go file is not gofmt-clean; prints the offenders.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Docs cross-reference check: every docs/*.md referenced from README.md or
# DESIGN.md must exist, and every file in docs/ must be referenced from one
# of them — no dangling links, no orphaned documents. Implemented as a Go
# test (docs_test.go) so `go test ./...` enforces it too.
docs-check:
	$(GO) test -run TestDocs -count=1 .

test:
	$(GO) test ./...

# Race-detector pass over the whole tree; parallelism is on by default
# (pool width = GOMAXPROCS), so this exercises the concurrent hot paths.
# -count=1 so a cached result can never stand in for a run.
race:
	$(GO) test -race -count=1 ./...

# Non-test Go lines added/removed per package between PARENT and the
# working tree (stage new files first: untracked ones are not in the diff),
# outside benchmark/ — the LOC delta ROADMAP asks every PR to report.
#   make loc PARENT=HEAD~1
loc:
	@git diff --numstat $(PARENT) -- '*.go' ':!*_test.go' ':!benchmark' | awk ' \
		{ pkg = $$3; if (!sub(/\/[^\/]*$$/, "", pkg)) pkg = "."; \
		  if (!(pkg in add)) order[++n] = pkg; \
		  add[pkg] += $$1; del[pkg] += $$2; ta += $$1; td += $$2 } \
		END { for (i = 1; i <= n; i++) { p = order[i]; \
		    printf "%-28s +%-5d -%-5d %+d\n", p, add[p], del[p], add[p] - del[p] } \
		  printf "%-28s +%-5d -%-5d %+d\n", "total", ta, td, ta - td }'

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable record of the MVM kernel benchmark: the
# BenchmarkCrossbarMVMBatch sweep (batch 1/8/32/128 x 64..512, ns/vec per
# batch size; the b1 rows are the single-vector MVMInto cost), converted
# to BENCH_mvm.json. Also runs the serving-pipeline benchmark so
# BENCH_serve.json stays in step, and the hybrid dispatch, chaos, and
# capacity sweeps so BENCH_hybrid.json, BENCH_chaos.json, and
# BENCH_capacity.json do too.
bench-json: bench-serve bench-mvm bench-hybrid bench-chaos bench-capacity

# The MVM sweep alone. An archive, not a gate: there is no second path to
# hold a ratio against; the regression guard is `benchmark/run.sh compare`
# (benchmark/README.md) on sim_bitserial_b1 and sim_functional_b64, and
# `make bench-pairs` runs it against a parent commit.
bench-mvm:
	$(GO) test -run '^$$' -bench '^BenchmarkCrossbarMVMBatch$$' \
		-benchtime 30x -benchmem . \
		| $(GO) run ./cmd/benchjson -out BENCH_mvm.json
	@echo wrote BENCH_mvm.json

# Paired repository-benchmark runs, the form every speed claim takes
# (ROADMAP: one command, one workload, an interleaved same-run baseline):
# extracts PARENT into a tree under .bench_build/pairs/, runs PAIRS
# alternating parent/change runs of each WORKLOAD (seeds SEED, SEED+1, …;
# even pairs parent first, odd pairs change first) through each side's own
# benchmark/run.sh, then compares the two results files against the
# BENCHMARK.json bounds. The change side is the working tree.
#   make bench-pairs WORKLOAD=sim_functional_b64 PAIRS=10 PARENT=HEAD~1
WORKLOAD ?= sim_functional_b64
PAIRS ?= 10
PARENT ?= HEAD~1
SEED ?= 1
bench-pairs:
	@set -eu; d=$(CURDIR)/.bench_build/pairs; \
	rm -rf $$d; mkdir -p $$d/parent; \
	git archive $(PARENT) | tar -x -C $$d/parent; \
	for w in $(WORKLOAD); do \
		for i in $$(seq 0 $$(($(PAIRS) - 1))); do \
			order="parent change"; \
			if [ $$((i % 2)) -eq 1 ]; then order="change parent"; fi; \
			for side in $$order; do \
				root=$(CURDIR); \
				if [ $$side = parent ]; then root=$$d/parent; fi; \
				echo "bench-pairs: $$w pair $$i $$side"; \
				bash $$root/benchmark/run.sh --workload $$w --seed $$(($(SEED) + i)) \
					--out $$d/$$side.json >> $$d/$$side.log; \
			done; \
		done; \
	done; \
	bash benchmark/run.sh compare $$d/parent.json $$d/change.json

# Serving-pipeline benchmark: 64 closed-loop clients over the 8-bit MLP
# workload, serial per-request baseline vs the micro-batched pipeline
# (with two shadow-engine weight swaps mid-run), emitted through
# cmd/benchjson as BENCH_serve.json (throughput, p50/p95/p99, energy).
bench-serve:
	$(GO) run ./cmd/cimserve -clients 64 -requests 2048 -batch 64 -reprogram 2 \
		| $(GO) run ./cmd/benchjson -out BENCH_serve.json
	@echo wrote BENCH_serve.json

# Device-fault sweep artifact: the (stuck rate x spare budget) grid from
# internal/experiments, emitted as benchmark lines and archived through
# cmd/benchjson as BENCH_fault.json (accuracy, remap/lost counts, retry
# pulses, programming energy in each result's extra map).
bench-fault:
	$(GO) run ./cmd/cimbench -exp fault -format bench \
		| $(GO) run ./cmd/benchjson -out BENCH_fault.json
	@echo wrote BENCH_fault.json

# Tracer-overhead artifact (docs/OBSERVABILITY.md budget: disabled <5%
# over untraced, 0 allocs): wall-clock ns/op for the MVM hot path and
# the serve request path — untraced vs disabled-tracer vs enabled —
# archived through cmd/benchjson as BENCH_obs.json.
bench-obs:
	$(GO) run ./cmd/cimbench -exp obs -format bench \
		| $(GO) run ./cmd/benchjson -out BENCH_obs.json
	@echo wrote BENCH_obs.json

# Serving-fleet artifact (docs/CLUSTER.md): every routing policy at
# engine counts 1/2/4/8 under closed-loop load with a rolling reprogram
# mid-run. Simulated throughput, speedup vs 1 engine, wall p50/p99, and
# the zero-downtime evidence (failed must be 0, rolled_engines = engines)
# land in BENCH_fleet.json via cmd/benchjson.
bench-fleet:
	$(GO) run ./cmd/cimbench -exp fleet -format bench \
		| $(GO) run ./cmd/benchjson -out BENCH_fleet.json
	@echo wrote BENCH_fleet.json

# Hybrid dispatch artifact (docs/HYBRID.md): the CIM-vs-CPU crossover
# grid (layer size x batch, per-item simulated latency on the crossbar vs
# the executing Von Neumann twin) plus the mixed-workload comparison of
# forced-cim / forced-vn / auto dispatch. The -gate-hybrid check fails
# unless the sweep measures a real crossover (cells on both sides of
# speedup 1) and auto throughput at least matches the best single
# backend. Everything is simulated cost, so the gate is deterministic.
bench-hybrid:
	$(GO) run ./cmd/cimbench -exp hybrid -format bench \
		| $(GO) run ./cmd/benchjson -gate-hybrid -out BENCH_hybrid.json
	@echo wrote BENCH_hybrid.json

# Chaos-harness artifact (docs/RESILIENCE.md): the scenario x hedging grid
# (fault-free baseline, straggler, crash-during-rolling-reprogram, open-
# loop overload burst) scored against the fault-free single-engine keyed
# oracle. The -gate-chaos check fails on any lost keyed request, any
# non-bit-identical output, or overload p99 beyond 10x the fault-free
# baseline — the SLOs the resilience layer exists to keep. The headline
# straggler rows should show hedging recovering most of the p99
# regression (hedge_wins > 0, hedged p99 well under the unhedged row).
bench-chaos:
	$(GO) run ./cmd/cimbench -exp chaos -format bench \
		| $(GO) run ./cmd/benchjson -gate-chaos -out BENCH_chaos.json
	@echo wrote BENCH_chaos.json

# SLO capacity-planning artifact (docs/CAPACITY.md): the engines x
# offered-rate grid driven open loop (deterministic Poisson schedule,
# mixed batch-1/batch-8/analytics request classes), each cell scored
# against the 25ms p99 SLO with zero sheds and zero lost requests, plus
# the rated capacity per engine count (top of the passing prefix) and the
# closed-vs-open comparison rows that demonstrate coordinated omission.
# The -gate-capacity check fails unless every pass bit is backed by its
# own cell's numbers, the passing cells form a monotone prefix of the
# rate ladder, and every engine count rates at some rung.
bench-capacity:
	$(GO) run ./cmd/cimbench -exp capacity -format bench \
		| $(GO) run ./cmd/benchjson -gate-capacity -out BENCH_capacity.json
	@echo wrote BENCH_capacity.json

# Quick benchmark smoke: one iteration of the Section VI latency sweep,
# enough to catch a broken hot path without a full benchmark run.
bench-smoke:
	$(GO) test -bench=SecVILatency -benchtime=1x .

cover:
	$(GO) test -cover ./...

# Short fuzzing pass over the wire-format parsers, the checksum layer,
# and the histogram quantile estimator (the hedge delay and every latency
# SLO read through it: quantiles must stay monotone in q, inside
# [Min, Max], and self-consistent on arbitrary observation sets).
fuzz:
	$(GO) test -fuzz=FuzzUnmarshal -fuzztime=15s ./internal/packet/
	$(GO) test -fuzz=FuzzDecode -fuzztime=15s ./internal/isa/
	$(GO) test -fuzz=FuzzAssemble -fuzztime=15s ./internal/isa/
	$(GO) test -fuzz=FuzzSealOpen -fuzztime=15s ./internal/fault/
	$(GO) test -fuzz=FuzzFlipBit -fuzztime=15s ./internal/fault/
	$(GO) test -fuzz=FuzzHistogramQuantile -fuzztime=15s ./internal/metrics/

# Regenerate every paper table and figure.
experiments:
	$(GO) run ./cmd/cimbench

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/edge
	$(GO) run ./examples/graphanalytics
	$(GO) run ./examples/faulttolerance
	$(GO) run ./examples/selfprogramming
	$(GO) run ./examples/training
	$(GO) run ./examples/analytics

clean:
	$(GO) clean -testcache
