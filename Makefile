GO ?= go

# Fuzz targets as NAME:PACKAGE pairs (one `go test -fuzz` invocation
# each: the Go fuzzer accepts a single target per run). The decompressors
# must error on corrupted payloads, never panic (the fault-injection
# framework feeds them in at simulation time); the snapshot container and
# the full simulator-state loader must survive arbitrary blobs the same
# way (checkpoint files live on disk between runs and are untrusted).
# FuzzSnapshotPayload corrupts one payload byte of a real checkpoint and
# re-seals it, so the corruption reaches the decoder past the checksum;
# every rejection must come from an explicit check, not the loader's
# recover backstop.
# FuzzPredecode differentially tests the superop engine against the
# test-only interpreter on random Builder programs (the
# decoded≡interpreter invariant, DESIGN.md §12). FuzzControllerDeploy differentially tests
# the bitmask assist-warp controller against a reference model of the
# O(n) deploy scan and bool-ring utilization window (DESIGN.md §10).
FUZZ_TARGETS = \
	FuzzDecompressBDI:./internal/compress \
	FuzzDecompressFPC:./internal/compress \
	FuzzDecompressCPack:./internal/compress \
	FuzzOpen:./internal/snapshot \
	FuzzReader:./internal/snapshot \
	FuzzSnapshotLoad:./internal/gpu \
	FuzzSnapshotPayload:./internal/gpu \
	FuzzPredecode:./internal/core \
	FuzzControllerDeploy:./internal/core
FUZZTIME ?= 10s

.PHONY: build vet lint test race fuzz snapshot-check trace-check farm-check usecase-check soak soak-short check bench bench-compare bench-test layers

# Seed for the chaos/soak harness: one seed determines the entire chaos
# schedule (which cells get killed/hung/OOMed, restart and clock-skew
# times, disk slowness), so a failing run reproduces exactly.
SOAK_SEED ?= 1

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint enforces godoc coverage on every internal package and on the
# experiments surface, with the repo's own stdlib-only checker (no
# external linters).
lint:
	$(GO) run ./scripts/lintdoc ./internal/obs ./internal/audit ./internal/faults ./internal/snapshot ./internal/isa ./internal/timing ./internal/farm ./internal/core ./internal/config ./internal/workloads ./internal/gpu ./internal/mem ./internal/compress ./internal/energy ./internal/stats ./experiments

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fuzz:
	@for t in $(FUZZ_TARGETS); do \
		name=$${t%%:*}; pkg=$${t#*:}; \
		echo "fuzz $$name ($(FUZZTIME)) in $$pkg"; \
		$(GO) test -run '^$$' -fuzz "^$$name$$" -fuzztime $(FUZZTIME) "$$pkg" || exit 1; \
	done

# snapshot-check proves the checkpoint/restore guarantee in isolation:
# run → save → load → run is bit-identical to an uninterrupted run (the
# differential harness's split variants, fault campaigns and a wedge
# included), the invariant auditor stays quiet on clean runs, and
# malformed blobs surface structured errors instead of panicking.
snapshot-check:
	$(GO) test ./internal/snapshot
	$(GO) test -run 'Snapshot|Audit|Wedge|Checkpoint' ./internal/gpu ./experiments .
	$(GO) test -run 'TestDifferential/.*/on/split' ./internal/gpu

# trace-check proves the trace exporter's schema promise end to end: a
# small instrumented PVC run must produce a Perfetto-loadable trace with
# balanced spans and monotone timestamps.
trace-check:
	$(GO) test -run 'TestTraceSchemaPVC' .

# farm-check proves the distributed-sweep contract under chaos, with the
# race detector on (coordinator, workers and client genuinely run
# concurrently here): a four-worker sweep with an injected kill, hang,
# transient flake and deterministic wedge must converge to results
# bit-identical to the in-process run, resume the killed cell from its
# checkpoint blob, never retry the wedge, and serve restarts from the
# result cache. soak-short rides along as the overload/robustness gate.
# The hard -timeout keeps a protocol deadlock from eating the CI budget.
farm-check: soak-short
	$(GO) test -race -timeout 10m ./internal/farm
	$(GO) test -race -timeout 10m -run 'TestFarmSweepEndToEnd|TestSweepContextCancel|TestCheckpointTornResult|TestFarmClient' ./experiments

# soak runs the seeded chaos/soak harness for the farm (FARM.md,
# "Operating under overload"): coordinator kill/restart with torn-write
# injection, worker kills/hangs/OOMs, a poison cell, admission-control
# pressure, lease-clock skew and slow disk, all under the race detector.
# SOAK_SEED picks the schedule; a failure reproduces with the same seed.
soak:
	SOAK_SEED=$(SOAK_SEED) $(GO) test -race -timeout 15m -count=1 -v -run 'TestSoakSeededChaos' ./internal/farm

# soak-short is the fixed-seed CI variant: deterministic schedule, race
# detector on, hard timeout so a deadlock fails fast instead of hanging
# the build.
soak-short:
	SOAK_SEED=1 $(GO) test -race -timeout 5m -count=1 -run 'TestSoakSeededChaos' ./internal/farm

# usecase-check proves the assist-warp use-case contract (USECASES.md,
# DESIGN.md §14) end to end: use-cases-off runs stay byte-identical to
# the goldens, prefetch/memoization runs pass every variant of the
# differential harness (per-cycle reference, result-neutral knobs,
# snapshot splits), each showcase workload actually wins cycles, and the
# Figure 14 sweep keeps its shape.
usecase-check:
	$(GO) test -run 'TestZeroFaultGolden|TestPrefetchWinsOnSTRD|TestMemoizationWinsOnTBL' .
	$(GO) test -run 'TestStrideTable|TestPrefetchUsefulnessRing|TestMemoCache|TestMemoKey|TestDifferential/CABA-(Prefetch|Memo|Combined)' ./internal/gpu
	$(GO) test -run 'TestFig14Hooked' ./experiments

# bench-test runs the repo benchmark's own tests (BENCHMARK.json, bench/).
# bench/ is a separate Go module, so the root `go test ./...` never
# reaches it, yet it compiles against the simulator's public API.
bench-test:
	cd bench && $(GO) test ./...

# check is the tier-1 gate: everything must pass before a commit.
check: build vet lint snapshot-check trace-check farm-check usecase-check test race bench-test fuzz

# bench refreshes BENCH_sim.json with the simulator hot-loop and event
# queue numbers (ns/op, B/op, allocs/op).
bench:
	./scripts/bench.sh

# bench-compare reruns the sentinel hot-loop benchmarks and fails if any
# regressed more than 10% against the ns/op recorded in BENCH_sim.json
# (catch perf regressions without rewriting the baseline). It exits 2
# without gating on a host whose fingerprint differs from the recorded
# one.
bench-compare:
	./scripts/bench_compare.sh

# layers profiles one benchmark (default: the trigger-retry sentinel) and
# prints each simulator layer's share of its flat CPU self-time, so a
# speedup can be attributed to the layer it came from.
LAYERS_BENCH ?= BenchmarkSimCABAFPCMUM
LAYERS_PKG ?= .
layers:
	./scripts/layers.sh $(LAYERS_BENCH) $(LAYERS_PKG)
