package gpu_test

import (
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
	}
	return r
}

// TestPerCycleReference checks the per-SM quiescence cache against the
// per-cycle reference, which runs every SM's full tick every cycle. Each
// row runs both ways and must agree on the error text, the cycle count,
// every stats.Sim counter (fault counters included), the decompression
// mismatch count and, with observability on, the sampled series and the
// per-cause stall attribution totals.
func TestPerCycleReference(t *testing.T) {
	base := config.Baseline()
	base.Scale = 0.03
	with := func(f func(*config.Config)) config.Config {
		c := base
		f(&c)
		return c
	}
	rows := []struct {
		name    string
		app     string
		design  config.Design
		cfg     config.Config
		wantErr bool
	}{
		{"sssp_Base", "sssp", config.DesignBase, base, false},
		{"PVC_CABA-BDI", "PVC", config.DesignCABABDI, base, false},
		{"bfs_HW-BDI", "bfs", config.DesignHWBDI, base, false},
		{"TRA_CABA-BDI", "TRA", config.DesignCABABDI, base, false},
		{"KM_Ideal-BDI", "KM", config.DesignIdealBDI, base, false},
		{"STRD_CABA-Prefetch", "STRD", config.DesignCABAPrefetch, base, false},
		{"TBL_CABA-Memo", "TBL", config.DesignCABAMemo,
			with(func(c *config.Config) { c.MaxThreadsPerSM = 512 }), false},
		{"STRD_CABA-Combined", "STRD", config.DesignCABACombined, base, false},
		{"PVC_CABA-BDI_faults", "PVC", config.DesignCABABDI, with(func(c *config.Config) {
			c.Faults = faults.Config{Seed: 42, BitFlipRate: 0.05, MDCorruptRate: 0.02, ResponseDelayRate: 0.01}
		}), false},
		{"PVC_Base_dropped-responses", "PVC", config.DesignBase, with(func(c *config.Config) {
			c.Faults = faults.Config{Seed: 7, ResponseDropRate: 0.5}
		}), true},
		{"PVC_CABA-BDI_observed", "PVC", config.DesignCABABDI, with(func(c *config.Config) {
			c.SampleEvery = 500
			c.AttributeStalls = true
		}), false},
	}
	for _, row := range rows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			ref := runRow(t, row.cfg, row.design, row.app, true, 0)
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
			}
		})
	}
}
