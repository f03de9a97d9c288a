#!/bin/sh
# Compares the sentinel hot-loop benchmarks (BenchmarkSimCABAPVC,
# BenchmarkSimHotLoop, the use-case overhead canary
# BenchmarkSimPrefetchPVC and the trigger-retry sentinel
# BenchmarkSimCABAFPCMUM) against the ns/op recorded in BENCH_sim.json
# and fails if any is more than 10% slower.
# Run via `make bench-compare` from the repository root. Does not rewrite
# the baseline — that is `make bench`'s job.
#
# Exits 2 without benchmarking when this host's fingerprint
# (scripts/hostmeta.sh: CPU model, CPU count, GOMAXPROCS, Go version)
# differs from the one BENCH_sim.json was recorded on: floors from
# another host say nothing about a regression here.
set -e
cd "$(dirname "$0")/.."

if [ ! -f BENCH_sim.json ]; then
  echo "FAIL: BENCH_sim.json missing; run 'make bench' to record a baseline" >&2
  exit 1
fi

recorded=$(sed -n 's/^ *"meta": \(.*\),$/\1/p' BENCH_sim.json)
here=$(sh scripts/hostmeta.sh)
if [ "$recorded" != "$here" ]; then
  echo "bench-compare: BENCH_sim.json was recorded on a different host; refusing to gate" >&2
  echo "  recorded: ${recorded:-none}" >&2
  echo "  here:     $here" >&2
  echo "  run 'make bench' to record floors on this host" >&2
  exit 2
fi

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

# Same fixed iteration count as scripts/bench.sh so the numbers are
# comparable with the recorded baseline. Both sides are minimums over
# repeated runs (the baseline records min-of-3): wall-clock on shared
# hosts swings ±15% run to run while the floor is stable, and only a
# floor-vs-floor comparison makes a 10% threshold usable.
go test -run '^$' \
  -bench 'BenchmarkSimCABAPVC$|BenchmarkSimHotLoop$|BenchmarkSimPrefetchPVC$|BenchmarkSimCABAFPCMUM$' \
  -benchtime 5x -count 5 . | tee "$tmp"

for name in BenchmarkSimCABAPVC BenchmarkSimHotLoop BenchmarkSimPrefetchPVC BenchmarkSimCABAFPCMUM; do
  base=$(awk -F'[,: ]+' -v n="\"$name\"" '
    $0 ~ n {
      for (i = 1; i <= NF; i++) if ($i == "\"ns_per_op\"") print $(i+1)
    }' BENCH_sim.json | tr -d '}')
  new=$(awk -v n="$name" '$1 ~ "^"n"(-[0-9]+)?$" {
      for (i = 2; i <= NF; i++)
        if ($i == "ns/op" && (best == "" || $(i-1)+0 < best+0)) best = $(i-1)
    } END { if (best != "") print best }' "$tmp")
  if [ -z "$base" ]; then
    echo "FAIL: $name has no ns_per_op baseline in BENCH_sim.json" >&2
    exit 1
  fi
  if [ -z "$new" ]; then
    echo "FAIL: $name produced no ns/op (benchmark missing or renamed?)" >&2
    exit 1
  fi
  # Integer arithmetic: regression iff new > base * 1.10.
  if [ "$(printf '%.0f' "$new")" -gt "$((${base%.*} * 110 / 100))" ]; then
    echo "FAIL: $name regressed >10%: baseline ${base} ns/op, now ${new} ns/op" >&2
    exit 1
  fi
  echo "ok: $name ${base} -> ${new} ns/op (within 10%)"
done
