#!/usr/bin/env bash
# The command of BENCHMARK.json: build bench/ and run it with the driver's
# arguments, from the root of a checkout. A benchmark run may write only
# inside its checkout, and `go run ./bench` on its own keeps the build
# cache and the linked binary under $HOME and /tmp, so the toolchain's
# directories are pointed at .bench_build/ here. The first run in a
# checkout compiles the standard library into that cache (about a minute
# on two cores); later runs only check it.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
