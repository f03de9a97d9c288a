#!/bin/sh
# Prints this host's benchmark fingerprint as one JSON object: CPU model,
# CPU count, the GOMAXPROCS Go benchmarks run under, and the Go version.
# scripts/bench.sh records it as BENCH_sim.json's "meta";
# scripts/bench_compare.sh refuses to gate against numbers recorded under
# a different fingerprint.
cpu=$(awk -F': *' '/^model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null)
[ -n "$cpu" ] || cpu=$(sysctl -n machdep.cpu.brand_string 2>/dev/null) || true
[ -n "$cpu" ] || cpu=unknown
cpu=$(printf '%s' "$cpu" | tr -d '"\\')
ncpu=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)
# Go's default GOMAXPROCS is the CPU count available to the process.
gomaxprocs=${GOMAXPROCS:-$ncpu}
gover=$(go env GOVERSION)
printf '{"cpu_model": "%s", "nproc": %s, "gomaxprocs": %s, "go_version": "%s"}\n' \
  "$cpu" "$ncpu" "$gomaxprocs" "$gover"
