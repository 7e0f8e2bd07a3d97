#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# arguments given. Everything the build leaves behind stays inside the
# checkout, under .bench_build/ (the Go build cache included), so a run
# writes nowhere else. Run from the root of the checkout:
#
#   bash bench/run.sh --workload avr-fib-seu --seed 1 --seconds 20 --trace 0
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal/hafi ]; then
	echo "bench/run.sh: run from the root of a checkout that holds the module (go.mod, internal/)" >&2
	exit 3
fi
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/campaign-bench" ./bench
exec "$build/campaign-bench" "$@"
