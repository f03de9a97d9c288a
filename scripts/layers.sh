#!/bin/sh
# Attributes one benchmark's host time to the simulator's layers.
#
#   scripts/layers.sh BENCH [PKG]     (or: make layers LAYERS_BENCH=...)
#
# Runs benchmark BENCH (an exact name, e.g. BenchmarkSimCABAFPCMUM) of
# package PKG (default: the repository root package) once under
# -cpuprofile, then buckets every function's flat self-time by the
# layer it belongs to and prints each bucket's share of the samples:
#   core+isa  the decoded core and ISA
#   issue     the SM's issue stage: tick, quiescent, the warp scan, the
#             GTO order, ports, the writeback ring, the assist and memo
#             issue paths, and the core code it inlines: the probes
#             (CurrentSop, RegMask's ...Sop methods) and Exec.Reg, which
#             only the memo key reads
#   gpu-mem   the rest of internal/gpu: loads, stores, fills, the
#             assist-warp triggers, the run loop
#   caches    internal/mem's L1/L2 caches, MSHRs, partitions, crossbar,
#             domain and backing store
#   dram      internal/mem's DRAM channels and metadata cache
#   timing, compress, snapshot, runtime (maps, GC, allocation, memmove)
#   and other.
# The benchmark runs 5 iterations, as in scripts/bench.sh. Needs go and
# awk.
set -eu
if [ $# -lt 1 ] || [ $# -gt 2 ]; then
	echo "usage: $0 BENCH [PKG]" >&2
	exit 2
fi
bench=$1
pkg=${2:-.}
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
dir=$(go list -f '{{.Dir}}' "$pkg")
go test -c -o "$tmp/bench.test" "$pkg"
# Run from the package directory, as go test would.
(cd "$dir" && "$tmp/bench.test" -test.run '^$' -test.bench "^$bench\$" \
	-test.benchtime 5x -test.cpuprofile "$tmp/cpu.out") >"$tmp/bench.out"
grep -q "^$bench" "$tmp/bench.out" || {
	cat "$tmp/bench.out" >&2
	echo "layers: benchmark $bench did not run in $pkg" >&2
	exit 1
}
grep "^$bench" "$tmp/bench.out"

# Every node (no fraction cutoff), flat time in milliseconds.
go tool pprof -top -unit=ms -nodecount=1000000 -nodefraction=0 -edgefraction=0 \
	"$tmp/bench.test" "$tmp/cpu.out" 2>/dev/null |
	awk '
	$1 ~ /^[0-9.]+ms$/ && $2 ~ /%$/ {
		ms = $1; sub(/ms$/, "", ms)
		fn = $6
		if (fn ~ /\/internal\/core\.\(\*(Exec\)\.(CurrentSop|Reg)|RegMask\)\.[A-Za-z]+Sop)$/) b = "issue"
		else if (fn ~ /\/internal\/(core|isa)\./) b = "core+isa"
		else if (fn ~ /\/internal\/gpu\./) {
			# SM methods by name. The family patterns (tick*, *order*,
			# *memo*) also match the names earlier commits use
			# (tickSafe, rebuildOrder, orderMoveToBack), so a parent and
			# a change profiled for an A/B bucket the same work alike.
			m = fn
			sub(/^.*\/internal\/gpu\./, "", m)
			sub(/^\(\*SM\)\./, "", m)
			if (m ~ /^(tick.*|quiescent|quietWarp|issueSlot|skipKnown|tryWarp|stepped|.*[Oo]rder.*|insertSorted|unlink|hazard|computeHazard|wb(Add|Pop|Next)|tryIssueAssist|issueRegular|finishAfter|handleControl|noteWarpDone|countClass|checkAssistDone|chargeSlot|depCause|classify|blameFor|gtoBefore|mix64|.*[Mm]emo.*)$/ ||
				m ~ /^\(\*(slotFlags|warpCtx|memoCache)\)\./)
				b = "issue"
			else
				b = "gpu-mem"
		}
		else if (fn ~ /\/internal\/mem\.(\(\*(Channel|MDCache)\)|actServe)/) b = "dram"
		else if (fn ~ /\/internal\/mem\./) b = "caches"
		else if (fn ~ /\/internal\/timing\./) b = "timing"
		else if (fn ~ /\/internal\/compress\./) b = "compress"
		else if (fn ~ /\/internal\/snapshot\./) b = "snapshot"
		# Runtime assembly (aeshashbody, memeqbody, ...) has no package.
		else if (fn ~ /^(runtime|internal\/runtime\/)/ || fn !~ /\./) b = "runtime"
		else b = "other"
		flat[b] += ms
		total += ms
	}
	END {
		if (total == 0) { print "layers: empty profile" > "/dev/stderr"; exit 1 }
		n = split("core+isa issue gpu-mem caches dram timing compress snapshot runtime other", order, " ")
		printf "%-10s %10s %7s\n", "layer", "flat_ms", "share"
		for (i = 1; i <= n; i++)
			printf "%-10s %10.0f %6.1f%%\n", order[i], flat[order[i]], 100 * flat[order[i]] / total
		printf "%-10s %10.0f %6.1f%%\n", "total", total, 100
	}'
