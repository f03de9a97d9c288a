#!/bin/sh
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Everything the build and the runs write stays under
# .bench_build/ at the repository root: the Go build cache, the binary and
# each run's working state. Run it from the repository root.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$out/cababench" .)
exec "$out/cababench" "$@"
