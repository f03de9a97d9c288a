package caba_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	caba "github.com/caba-sim/caba"
)

// TestBatchGoldenEquivalence is the block-batched issue engine's contract
// at the full-simulator level: Config.BatchIssue must be invisible in the
// results. FuzzStepRun pins the macro-step≡per-step invariant on one
// Exec; this test closes the loop over the whole machine — the window
// establishment scan, the precomputed issue schedule, the side-effect
// replay of issue-slot stats and per-warp stall attribution — by running
// app×design pairs with batching on and off across SMWorkers {1,4} ×
// FastForward {on,off} and requiring the Result, every raw counter in
// Metrics, and the full per-warp stall-attribution report to match
// exactly, not approximately. SMWorkers is deprecated and ignored (SMs
// always tick serially); the w4 cases keep checking that a caller which
// still sets it, as bench/ does, gets the same machine.
func TestBatchGoldenEquivalence(t *testing.T) {
	pairs := []struct {
		app    string
		design caba.Design
	}{
		{"sssp", caba.Base},   // memory-bound, no compression machinery
		{"PVC", caba.CABABDI}, // assist warps + cross-SM atomics
		{"KM", caba.IdealBDI}, // zero-latency decompression design
	}
	for _, p := range pairs {
		for _, workers := range []int{1, 4} {
			for _, ff := range []bool{true, false} {
				p, workers, ff := p, workers, ff
				name := fmt.Sprintf("%s_%s_w%d_ff%v", p.app, p.design.Name, workers, ff)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					run := func(batch bool) *caba.Result {
						t.Helper()
						cfg := caba.QuickConfig()
						cfg.Scale = 0.03
						cfg.BatchIssue = batch
						cfg.SMWorkers = workers
						cfg.FastForward = ff
						cfg.AttributeStalls = true
						r, err := caba.Run(cfg, p.design, p.app, 1)
						if err != nil {
							t.Fatalf("BatchIssue=%v: %v", batch, err)
						}
						return r
					}
					batched := run(true)
					ref := run(false)
					if batched.Cycles != ref.Cycles {
						t.Errorf("cycles diverge: batched %d, per-cycle %d", batched.Cycles, ref.Cycles)
					}
					if batched.IPC != ref.IPC {
						t.Errorf("IPC diverges: %v != %v", batched.IPC, ref.IPC)
					}
					if batched.BandwidthUtil != ref.BandwidthUtil {
						t.Errorf("bandwidth utilization diverges: %v != %v", batched.BandwidthUtil, ref.BandwidthUtil)
					}
					if batched.CompressionRatio != ref.CompressionRatio {
						t.Errorf("compression ratio diverges: %v != %v", batched.CompressionRatio, ref.CompressionRatio)
					}
					if batched.EnergyNJ != ref.EnergyNJ || batched.DRAMEnergyNJ != ref.DRAMEnergyNJ {
						t.Errorf("energy diverges: total %v != %v, DRAM %v != %v",
							batched.EnergyNJ, ref.EnergyNJ, batched.DRAMEnergyNJ, ref.DRAMEnergyNJ)
					}
					if batched.FFSkips != ref.FFSkips || batched.FFCycles != ref.FFCycles {
						t.Errorf("fast-forward skips diverge: %d/%d != %d/%d",
							batched.FFSkips, batched.FFCycles, ref.FFSkips, ref.FFCycles)
					}
					for _, d := range batched.Stats.Diff(ref.Stats) {
						t.Errorf("stats diverge: %s", d)
					}
					if !reflect.DeepEqual(batched.Stalls, ref.Stalls) {
						t.Errorf("stall attribution diverges:\nbatched: %+v\nper-cycle: %+v", batched.Stalls, ref.Stalls)
					}
				})
			}
		}
	}
}

// TestBatchSnapshotResume covers the remaining batch-window snapshot
// corner at the public API level: a checkpointed batch-issue run that is
// never interrupted, and one resumed from its own mid-run snapshot, both
// converge to the uncheckpointed result (windows are strategy-only state
// — never serialized, re-derived after restore).
func TestBatchSnapshotResume(t *testing.T) {
	cfg := caba.QuickConfig()
	cfg.Scale = 0.05
	cfg.BatchIssue = true
	cfg.CheckpointEvery = 2_000
	straight, err := caba.Run(cfg, caba.CABABDI, "PVC", 1)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := t.TempDir() + "/batch.ckpt"
	res, err := caba.RunCheckpointed(context.Background(), cfg, caba.CABABDI, "PVC", 1, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != straight.Cycles || !reflect.DeepEqual(res.Stats, straight.Stats) {
		t.Error("checkpointed batch run diverged from plain run")
	}
}
