#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. The benchmark
# is a module of its own (benchmark/go.mod) that replaces cimrev with the
# checkout around it. Everything the Go toolchain writes (build cache,
# temporary files, telemetry counters, the binary) stays under .bench_build/
# in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "benchmark: no simulator source here (go.mod, internal/): nothing to build or measure" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS=
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off

(cd benchmark && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
