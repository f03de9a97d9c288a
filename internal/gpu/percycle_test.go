package gpu_test

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/caba-sim/caba/internal/config"
	"github.com/caba-sim/caba/internal/faults"
	"github.com/caba-sim/caba/internal/gpu"
	"github.com/caba-sim/caba/internal/obs"
	"github.com/caba-sim/caba/internal/stats"
	"github.com/caba-sim/caba/internal/workloads"
)

// refRun is what one run exposes to the comparison.
type refRun struct {
	err        string
	cycles     uint64
	s          *stats.Sim
	mismatches uint64
	series     *obs.Series
	stalls     [obs.NumCauses]uint64
	perWarp    [][][obs.NumCauses]uint64 // per SM, the attribution rows
	out        []byte                    // the output region
}

// runRow runs app under design on cfg with seed 1, set up as caba.Run
// sets it up (including the profiling gate that turns CABA compression
// off for compute-bound apps), with the quiescence cache on or with the
// per-cycle reference. maxCycles 0 selects the workload's own cap.
func runRow(t *testing.T, cfg config.Config, design config.Design, appName string, perCycle bool, maxCycles uint64) refRun {
	t.Helper()
	app := workloads.ByName(appName)
	if app == nil {
		t.Fatalf("unknown app %s", appName)
	}
	if design.Decomp == config.DecompCABA && !app.MemoryBound {
		name, uc := design.Name, design.UseCase
		design = config.DesignBase
		design.Name, design.UseCase = name, uc
	}
	inst, err := app.Instantiate(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := gpu.New(&cfg, design, inst.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	if perCycle {
		gpu.SetPerCycle(sim)
	}
	inst.Prepare(sim, 1)
	if maxCycles == 0 {
		maxCycles = inst.MaxCycles()
	}
	var r refRun
	if err := sim.Run(maxCycles); err != nil {
		r.err = err.Error()
	}
	r.cycles = sim.Cycles()
	r.s = sim.S
	r.mismatches = sim.DecompMismatches()
	r.series = sim.Series()
	if at := sim.StallAttribution(); at != nil {
		r.stalls = at.Totals()
		for _, a := range at.PerSM {
			r.perWarp = append(r.perWarp, a.Counts)
		}
	}
	r.out = make([]byte, inst.OutBytes)
	sim.Mem.Read(workloads.OutBase, r.out)
	return r
}

// TestPerCycleReference checks the per-SM quiescence cache against the
// per-cycle reference, which runs every SM's full tick every cycle. Each
// row runs both ways and must agree on the error text, the cycle count,
// every stats.Sim counter (fault counters included), the decompression
// mismatch count and, with observability on, the sampled series and the
// stall attribution, per cause and per warp: a replayed slot must blame
// the warp the full tick would blame.
func TestPerCycleReference(t *testing.T) {
	base := config.Baseline()
	base.Scale = 0.03
	with := func(f func(*config.Config)) config.Config {
		c := base
		f(&c)
		return c
	}
	// refCap caps the per-cycle reference run; 0 leaves the workload's
	// own cap (at least 20,000,000 cycles).
	rows := []struct {
		name    string
		app     string
		design  config.Design
		cfg     config.Config
		wantErr bool
		refCap  uint64
	}{
		{"sssp_Base", "sssp", config.DesignBase, base, false, 0},
		{"PVC_CABA-BDI", "PVC", config.DesignCABABDI, base, false, 0},
		{"bfs_HW-BDI", "bfs", config.DesignHWBDI, base, false, 0},
		{"TRA_CABA-BDI", "TRA", config.DesignCABABDI, base, false, 0},
		{"KM_Ideal-BDI", "KM", config.DesignIdealBDI, base, false, 0},
		{"STRD_CABA-Prefetch", "STRD", config.DesignCABAPrefetch, base, false, 0},
		{"TBL_CABA-Memo", "TBL", config.DesignCABAMemo,
			with(func(c *config.Config) { c.MaxThreadsPerSM = 512; c.AttributeStalls = true }), false, 0},
		{"STRD_CABA-Combined", "STRD", config.DesignCABACombined, base, false, 0},
		{"PVC_CABA-BDI_faults", "PVC", config.DesignCABABDI, with(func(c *config.Config) {
			c.Faults = faults.Config{Seed: 42, BitFlipRate: 0.05, MDCorruptRate: 0.02, ResponseDelayRate: 0.01}
		}), false, 0},
		{"PVC_Base_dropped-responses", "PVC", config.DesignBase, with(func(c *config.Config) {
			c.Faults = faults.Config{Seed: 7, ResponseDropRate: 0.5}
		}), true, 0},
		{"PVC_CABA-BDI_observed", "PVC", config.DesignCABABDI, with(func(c *config.Config) {
			c.SampleEvery = 500
			c.AttributeStalls = true
		}), false, 0},
		// An LRR livelock must fail here, not spin to the workload's cap:
		// GTO runs hs at this scale in 4,666 cycles.
		{"hs_Base_LRR", "hs", config.DesignBase, with(func(c *config.Config) {
			c.Scheduler = config.SchedLRR
			c.AttributeStalls = true
		}), false, 200_000},
	}
	for _, row := range rows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			ref := runRow(t, row.cfg, row.design, row.app, true, row.refCap)
			// A cache that stalls an SM for good would otherwise spin to
			// the workload's cap; past twice the reference's cycles the
			// cached run stops with a cycle-cap error, which fails below.
			cached := runRow(t, row.cfg, row.design, row.app, false, 2*ref.cycles+1000)
			if (ref.err != "") != row.wantErr {
				t.Fatalf("per-cycle run error %q, want an error: %v", ref.err, row.wantErr)
			}
			if cached.err != ref.err {
				t.Errorf("errors diverge:\n  cached:    %s\n  per-cycle: %s", cached.err, ref.err)
			}
			if cached.cycles != ref.cycles {
				t.Errorf("cycles diverge: cached %d, per-cycle %d", cached.cycles, ref.cycles)
			}
			for _, d := range ref.s.Diff(cached.s) {
				t.Errorf("stats diverge (per-cycle vs cached): %s", d)
			}
			if !reflect.DeepEqual(ref.s, cached.s) {
				t.Error("stats.Sim differs between the per-cycle and cached runs")
			}
			if cached.mismatches != ref.mismatches {
				t.Errorf("decompression mismatches diverge: cached %d, per-cycle %d", cached.mismatches, ref.mismatches)
			}
			if row.cfg.SampleEvery > 0 {
				if ref.series == nil || ref.series.Len() == 0 {
					t.Fatal("observed row recorded no samples")
				}
				if !reflect.DeepEqual(ref.series, cached.series) {
					t.Error("sampled series diverge")
				}
			}
			if row.cfg.AttributeStalls {
				if ref.stalls == [obs.NumCauses]uint64{} {
					t.Fatal("observed row attributed no stalls")
				}
				if cached.stalls != ref.stalls {
					t.Errorf("stall attribution totals diverge:\n  cached:    %v\n  per-cycle: %v",
						cached.stalls, ref.stalls)
				}
				if !reflect.DeepEqual(cached.perWarp, ref.perWarp) {
					t.Errorf("per-warp stall attribution diverges in %d slots", perWarpDiff(cached.perWarp, ref.perWarp))
				}
			}
		})
	}
}

// perWarpDiff sums the absolute per-(SM, warp, cause) differences of two
// attribution tables of the same shape.
func perWarpDiff(a, b [][][obs.NumCauses]uint64) uint64 {
	var d uint64
	for i := range a {
		for w := range a[i] {
			for c := range a[i][w] {
				x, y := a[i][w][c], b[i][w][c]
				if x > y {
					d += x - y
				} else {
					d += y - x
				}
			}
		}
	}
	return d
}

// TestLRRSchedulerRuns runs apps under the loose round-robin scheduler.
// It must finish them within 200,000 cycles (GTO needs at most about
// 76,000, on TBL) and compute the same output as GTO. An LRR walk that
// never revisits the last issuer livelocks as soon as that warp is the
// only one that can issue.
func TestLRRSchedulerRuns(t *testing.T) {
	cfg := config.Baseline()
	cfg.Scale = 0.01
	for _, app := range []string{"hs", "STRD", "PVC", "TBL"} {
		app := app
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			gto := runRow(t, cfg, config.DesignBase, app, false, 0)
			lrrCfg := cfg
			lrrCfg.Scheduler = config.SchedLRR
			lrr := runRow(t, lrrCfg, config.DesignBase, app, false, 200_000)
			if gto.err != "" || lrr.err != "" {
				t.Fatalf("GTO error %q, LRR error %q", gto.err, lrr.err)
			}
			if !bytes.Equal(gto.out, lrr.out) {
				t.Error("LRR computed a different output than GTO")
			}
			t.Logf("GTO %d cycles, LRR %d", gto.cycles, lrr.cycles)
			if lrr.s.WarpInstrs != gto.s.WarpInstrs {
				t.Errorf("LRR issued %d warp instructions, GTO %d", lrr.s.WarpInstrs, gto.s.WarpInstrs)
			}
		})
	}
}
