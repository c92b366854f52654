#!/usr/bin/env bash
# The command BENCHMARK.json names: builds and runs the benchmark from the root
# of a checkout, passing its arguments on. The Go toolchain would otherwise
# write its build cache under $HOME and the binary under /tmp; a benchmark run
# reads and writes only inside its checkout, so both go to .bench_build there.
set -eu
mkdir -p .bench_build/tmp
export GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/tmp"
exec go run ./benchmark "$@"
