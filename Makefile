GO ?= go

# The sweeps archived as BENCH_<exp>.json, one bench-<exp> target each.
BENCH_JSON := bench-fault bench-obs bench-fleet bench-hybrid bench-chaos bench-capacity

.PHONY: all build vet vet-arm64 fmt-check docs-check test race verify loc bench bench-smoke bench-json bench-pairs bench-alt profile $(BENCH_JSON) cover fuzz experiments examples clean

all: build vet test

# Tier-1 verify path: format + docs cross-reference check + build + vet
# (on amd64 that includes asmdecl over internal/crossbar's one assembly
# file) + the same for a second architecture + tests, then the same tests
# again under the race detector (the parallel simulation engine must stay
# race-clean).
verify: fmt-check docs-check build vet vet-arm64 test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# internal/crossbar's functional kernel has an amd64 assembly routine and no
# other: everywhere else the Go kernel is the only one, and nothing but a
# cross-build says that the package still compiles without the routine.
# Both commands run offline and need no arm64 host.
vet-arm64:
	GOARCH=arm64 $(GO) vet ./internal/crossbar && GOARCH=arm64 $(GO) build ./...

# Fail if any tracked Go file is not gofmt-clean; prints the offenders.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Docs cross-reference check: every docs/*.md referenced from README.md or
# DESIGN.md must exist, and every file in docs/ must be referenced from one
# of them — no dangling links, no orphaned documents; the same between
# docs/PERF.md and its dated entries under docs/perf/ — and every
# BENCH_<x>.json, cmd/<name> and `make bench-<x>` the docs name must exist
# in the tree / this Makefile. Implemented as Go tests (docs_test.go) so
# `go test ./...` enforces it too.
docs-check:
	$(GO) test -run TestDocs -count=1 .

test:
	$(GO) test ./...

# Race-detector pass over the whole tree; parallelism is on by default
# (pool width = GOMAXPROCS), so this exercises the concurrent hot paths.
# -count=1 so a cached result can never stand in for a run.
race:
	$(GO) test -race -count=1 ./...

# Go lines added/removed per package between PARENT and the working tree
# (stage new files first: untracked ones are not in the diff), outside
# benchmark/ — the LOC delta ROADMAP asks every PR to report, in two blocks
# of the same columns: non-test files, then *_test.go.
#   make loc PARENT=HEAD~1
LOC_TABLE = awk ' \
	{ pkg = $$3; if (!sub(/\/[^\/]*$$/, "", pkg)) pkg = "."; \
	  if (!(pkg in add)) order[++n] = pkg; \
	  add[pkg] += $$1; del[pkg] += $$2; ta += $$1; td += $$2 } \
	END { for (i = 1; i <= n; i++) { p = order[i]; \
	    printf "%-28s +%-5d -%-5d %+d\n", p, add[p], del[p], add[p] - del[p] } \
	  printf "%-28s +%-5d -%-5d %+d\n", "total", ta, td, ta - td }'
loc:
	@echo "non-test Go lines:"; \
	git diff --numstat $(PARENT) -- '*.go' ':!*_test.go' ':!benchmark' | $(LOC_TABLE); \
	echo; echo "test Go lines (*_test.go):"; \
	git diff --numstat $(PARENT) -- '*_test.go' ':!benchmark' | $(LOC_TABLE)

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable archives of the six sweeps that are kept as files
# (docs/FAULTS.md, OBSERVABILITY.md, CLUSTER.md, HYBRID.md, RESILIENCE.md,
# CAPACITY.md say what each one shows): BENCH_<exp>.json is `cimbench -exp
# <exp> -format json`, one {experiment, generated_at, result} document that
# is encoding/json over the struct the text table is rendered from. The
# hybrid, chaos and capacity results carry an acceptance gate (their Check
# method, internal/experiments); cimbench writes the document first and
# runs the gate second, so a failing sweep fails the target and still
# leaves its numbers on disk. fault and hybrid are simulated cost only and
# reproduce value for value; obs, fleet, chaos and capacity measure host
# wall time, so a host stall can fail the chaos or capacity gate: run the
# target again. All six take about fifteen seconds.
bench-json: $(BENCH_JSON)

$(BENCH_JSON): bench-%:
	$(GO) run ./cmd/cimbench -exp $* -format json > BENCH_$*.json

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

# Alternating micro-benchmark runs, the form every kernel-level number in
# docs/PERF.md takes (a single `go test -bench` run spans 40–110 µs for one
# 62 µs kernel on this host): extracts PARENT into a tree under
# .bench_build/alt/, builds each side's test binary of package PKG once,
# runs BENCH for TURNS turns of ITERS iterations per side, alternating the
# two binaries (even turns parent first, odd turns change first), and prints
# min / p25 / median / p75 of ns/op per (benchmark, side). The change side
# is the working tree. CPU is go test's -cpu list (empty: GOMAXPROCS); the
# worker pool's width follows it.
#   make bench-alt BENCH='CrossbarMVMBatch/128x128_8b_noisy_b1$$' PARENT=HEAD~1 TURNS=9 ITERS=2000
#   make bench-alt BENCH=EngineWorkloads CPU=1,2 ITERS=500
BENCH ?= CrossbarMVMBatch/128x128_8b(_noisy)?_b1$$
PKG ?= .
TURNS ?= 9
ITERS ?= 2000
CPU ?=
bench-alt:
	@set -eu; d=$(CURDIR)/.bench_build/alt; \
	rm -rf $$d; mkdir -p $$d/parent; \
	git archive $(PARENT) | tar -x -C $$d/parent; \
	(cd $$d/parent/$(PKG) && $(GO) test -c -o $$d/parent.test .); \
	(cd $(PKG) && $(GO) test -c -o $$d/change.test .); \
	for t in $$(seq 0 $$(($(TURNS) - 1))); do \
		order="parent change"; \
		if [ $$((t % 2)) -eq 1 ]; then order="change parent"; fi; \
		for side in $$order; do \
			dir=$(CURDIR)/$(PKG); \
			if [ $$side = parent ]; then dir=$$d/parent/$(PKG); fi; \
			echo "bench-alt: turn $$t $$side" >&2; \
			(cd $$dir && $$d/$$side.test -test.run '^$$' -test.bench '$(BENCH)' \
				-test.benchtime $(ITERS)x -test.cpu '$(CPU)' -test.timeout 20m) | \
				awk -v side=$$side '/^Benchmark/ { print $$1, side, $$3 }' >> $$d/turns.txt; \
		done; \
	done; \
	sort -k1,1 -k2,2r -k3,3n $$d/turns.txt | awk ' \
		function q(f) { x = 1 + f * (n - 1); lo = int(x); hi = lo < n ? lo + 1 : lo; \
			return v[lo] + (x - lo) * (v[hi] - v[lo]) } \
		function f(x) { return sprintf(x < 100 ? "%10.2f" : "%10.0f", x) } \
		function flush() { if (n) printf "%-58s %-6s %s %s %s %s\n", \
			key, side, f(v[1]), f(q(.25)), f(q(.5)), f(q(.75)); n = 0 } \
		BEGIN { printf "%-58s %-6s %10s %10s %10s %10s\n", "benchmark (ns/op)", "side", "min", "p25", "median", "p75" } \
		{ if ($$1 != key || $$2 != side) flush(); key = $$1; side = $$2; v[++n] = $$3 } \
		END { flush() }'

# CPU profile of one benchmark row, the picture ROADMAP and docs/PERF.md
# quote when they say where a call's time goes: builds package PKG's test
# binary under .bench_build/profile/, runs BENCH for ITERS iterations at
# -cpu CPU under -test.cpuprofile, and prints pprof's header (Duration is
# the wall time, Total samples the CPU time), its 25 heaviest nodes and,
# when LIST names functions, their annotated source.
#   make profile BENCH=EngineWorkloads/big_functional_b64 CPU=2 ITERS=3000 LIST='MVMBatchInto|runStage'
LIST ?=
profile:
	@set -eu; d=$(CURDIR)/.bench_build/profile; mkdir -p $$d; \
	(cd $(PKG) && $(GO) test -c -o $$d/profile.test . && \
		$$d/profile.test -test.run '^$$' -test.bench '$(BENCH)' -test.benchtime $(ITERS)x \
			-test.cpu '$(CPU)' -test.cpuprofile $$d/cpu.prof -test.timeout 20m); \
	$(GO) tool pprof -top -nodecount=25 $$d/profile.test $$d/cpu.prof; \
	if [ -n '$(LIST)' ]; then $(GO) tool pprof -list '$(LIST)' $$d/profile.test $$d/cpu.prof; fi

# Quick benchmark smoke: one iteration of the Section VI latency sweep
# (functional kernel), of one noisy bit-serial MVM (the per-conversion
# noise draw and ADC), of one odd functional batch (the vector routine's
# one-item pass after its item pairs) and of one 125-row functional read
# (the vector quantizer's masked one-lane tail), enough to catch a broken
# hot path without a full benchmark run.
bench-smoke:
	$(GO) test -bench='SecVILatency|CrossbarMVMBatch/(128x128_8b_(noisy_b1|func_b7)|125x128_8b_func_b1)$$' -benchtime=1x .

cover:
	$(GO) test -cover ./...

# Short fuzzing pass over the wire-format parsers, the checksum layer,
# the histogram quantile estimator (the hedge delay and every latency
# SLO read through it: quantiles must stay monotone in q, inside
# [Min, Max], and self-consistent on arbitrary observation sets), the
# normal sampler (any key and index: finite, inside the tail sampler's
# bound, equal when evaluated again, and equal to the strided fill over
# any start, stride and length), the bit-serial kernel's column sums
# (any shape, levels and inputs: AND + popcount over the bit planes equals
# a per-bit gather over the stored levels), the functional vector
# kernel (any shape, batch, operand widths in its envelope, column offsets
# and scales: gemmAVX2's finished outputs over the 16-bit panels equal the
# Go dequantize of a scalar sum over the stored levels; skipped on a host
# without AVX2), and the input quantizer (any input width, item length,
# magnitude and values: quantizeAVX2's 16-bit panel, quantizeRow's 32-bit
# one, the quantized sum and the scale equal the oracle's Abs / Round
# expressions).
fuzz:
	$(GO) test -fuzz=FuzzUnmarshal -fuzztime=15s ./internal/packet/
	$(GO) test -fuzz=FuzzDecode -fuzztime=15s ./internal/isa/
	$(GO) test -fuzz=FuzzAssemble -fuzztime=15s ./internal/isa/
	$(GO) test -fuzz=FuzzSealOpen -fuzztime=15s ./internal/fault/
	$(GO) test -fuzz=FuzzFlipBit -fuzztime=15s ./internal/fault/
	$(GO) test -fuzz=FuzzHistogramQuantile -fuzztime=15s ./internal/metrics/
	$(GO) test -fuzz=FuzzNorm -fuzztime=15s ./internal/noise/
	$(GO) test -fuzz=FuzzPlaneSums -fuzztime=15s ./internal/crossbar/
	$(GO) test -fuzz=FuzzVectorDot -fuzztime=15s ./internal/crossbar/
	$(GO) test -fuzz=FuzzQuantize -fuzztime=15s ./internal/crossbar/

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
