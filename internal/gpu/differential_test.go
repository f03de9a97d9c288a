package gpu_test

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
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
	stalls     *obs.Attribution
	out        []byte // the output region
}

// blob is one checkpoint a run's sink received.
type blob struct {
	cycle uint64
	data  []byte
}

// diffRow is one app × design × configuration the harness runs.
type diffRow struct {
	name   string
	app    string
	design config.Design
	tune   func(*config.Config) // nil: Baseline at scale 0.03
	// check asserts what the row exists to exercise, on its reference
	// run with observation off.
	check func(t *testing.T, ref refRun)
	// splitCheck asserts what the row's checkpoints exist to carry, on
	// the saving machine at its split-50 checkpoint
	// (TestSnapshotRestoresEveryField).
	splitCheck func(t *testing.T, saver *gpu.Simulator)
}

func (row diffRow) config() config.Config {
	cfg := config.Baseline()
	cfg.Scale = 0.03
	if row.tune != nil {
		row.tune(&cfg)
	}
	return cfg
}

// simulate runs row's app on cfg (see build) and returns what the run
// exposes and the checkpoints its sink received. resume, when set, is
// restored into a simulator whose memory was never prepared, so the blob
// must carry all of it. maxCycles 0 selects the workload's own cap.
func simulate(t *testing.T, row diffRow, cfg config.Config, perCycle bool, maxCycles uint64, resume []byte) (refRun, []blob) {
	t.Helper()
	sim, inst := build(t, row, cfg, resume)
	if perCycle {
		gpu.SetPerCycle(sim)
	}
	var blobs []blob
	sim.OnCheckpoint = func(cycle uint64, b []byte) error {
		blobs = append(blobs, blob{cycle, append([]byte(nil), b...)})
		return nil
	}
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
	r.stalls = sim.StallAttribution()
	r.out = make([]byte, inst.OutBytes)
	sim.Mem.Read(workloads.OutBase, r.out)
	return r, blobs
}

// build makes row's simulator on cfg as caba.Run does (including the
// profiling gate that turns CABA compression off for compute-bound apps):
// prepared with seed 1, or restored from resume into memory that was
// never prepared.
func build(t testing.TB, row diffRow, cfg config.Config, resume []byte) (*gpu.Simulator, *workloads.Instance) {
	t.Helper()
	app := workloads.ByName(row.app)
	if app == nil {
		t.Fatalf("unknown app %s", row.app)
	}
	design := row.design
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
	if resume != nil {
		if err := sim.LoadState(resume); err != nil {
			t.Fatalf("restore: %v", err)
		}
	} else {
		inst.Prepare(sim, 1)
	}
	return sim, inst
}

// sameRun reports every way got differs from want. The sampled series
// and the stall attribution are compared only when withObs is set.
func sameRun(t *testing.T, want, got refRun, withObs bool) {
	t.Helper()
	if got.err != want.err {
		t.Errorf("errors diverge:\n  got:  %s\n  want: %s", got.err, want.err)
	}
	if got.cycles != want.cycles {
		t.Errorf("cycles diverge: got %d, want %d", got.cycles, want.cycles)
	}
	for _, d := range want.s.Diff(got.s) {
		t.Errorf("stats diverge (want vs got): %s", d)
	}
	if !reflect.DeepEqual(want.s, got.s) {
		t.Error("stats.Sim differs")
	}
	if got.mismatches != want.mismatches {
		t.Errorf("decompression mismatches diverge: got %d, want %d", got.mismatches, want.mismatches)
	}
	if string(got.out) != string(want.out) {
		t.Error("output bytes diverge")
	}
	if !withObs {
		return
	}
	if !reflect.DeepEqual(got.series, want.series) {
		t.Error("sampled series diverge")
	}
	switch {
	case reflect.DeepEqual(got.stalls, want.stalls):
	case got.stalls == nil || want.stalls == nil:
		t.Errorf("stall attribution present: got %v, want %v", got.stalls != nil, want.stalls != nil)
	default:
		t.Errorf("stall attribution diverges in %d per-warp slots", perWarpDiff(got.stalls, want.stalls))
	}
}

// perWarpDiff sums the absolute per-(SM, warp, cause) differences of two
// attribution tables.
func perWarpDiff(a, b *obs.Attribution) uint64 {
	var d uint64
	for i := range min(len(a.PerSM), len(b.PerSM)) {
		x, y := a.PerSM[i].Counts, b.PerSM[i].Counts
		for w := range min(len(x), len(y)) {
			for c := range x[w] {
				d += max(x[w][c], y[w][c]) - min(x[w][c], y[w][c])
			}
		}
	}
	return d
}

// neutralSetters sets each result-neutral Config field (one ResultConfig
// zeroes) to a value that exercises it on a run of the given cycles.
// TestDifferential fails unless its keys are exactly the neutral fields,
// so a knob added to ResultConfig cannot skip the harness.
var neutralSetters = map[string]func(c *config.Config, cycles uint64, dir string){
	"SMWorkers":           func(c *config.Config, _ uint64, _ string) { c.SMWorkers = 4 },
	"CheckpointEvery":     func(c *config.Config, cycles uint64, _ string) { c.CheckpointEvery = max(cycles/20, 1) },
	"AuditEvery":          func(c *config.Config, cycles uint64, _ string) { c.AuditEvery = max(cycles/10, 1) },
	"FlightRecorderDepth": func(c *config.Config, _ uint64, _ string) { c.FlightRecorderDepth = 32 },
	"TraceFile":           func(c *config.Config, _ uint64, dir string) { c.TraceFile = filepath.Join(dir, "run.trace.json") },
	"MetricsFile":         func(c *config.Config, _ uint64, dir string) { c.MetricsFile = filepath.Join(dir, "run.metrics.jsonl") },
}

// splits are the snapshot points, in percent of the reference's cycles.
var splits = []uint64{25, 50, 90}

// diffRows are the harness's workloads, at Baseline scale 0.03 unless
// tuned.
var diffRows = []diffRow{
	{name: "sssp_Base", app: "sssp", design: config.DesignBase},
	{name: "PVC_CABA-BDI", app: "PVC", design: config.DesignCABABDI},
	{name: "bfs_HW-BDI", app: "bfs", design: config.DesignHWBDI},
	{name: "TRA_CABA-BDI", app: "TRA", design: config.DesignCABABDI},
	{name: "KM_Ideal-BDI", app: "KM", design: config.DesignIdealBDI},
	{name: "STRD_CABA-Prefetch", app: "STRD", design: config.DesignCABAPrefetch},
	{name: "TBL_CABA-Memo", app: "TBL", design: config.DesignCABAMemo,
		tune: func(c *config.Config) { c.MaxThreadsPerSM = 512 }},
	{name: "STRD_CABA-Combined", app: "STRD", design: config.DesignCABACombined},
	{name: "PVC_CABA-BDI_faults", app: "PVC", design: config.DesignCABABDI,
		tune: func(c *config.Config) {
			c.Faults = faults.Config{Seed: 42, BitFlipRate: 0.05, MDCorruptRate: 0.02, ResponseDelayRate: 0.01}
		},
		check: requireRecovery},
	// A quarter of the bandwidth keeps many fills and compressions in
	// flight at every snapshot point; the _faults row adds 200-cycle
	// response delays and recovery work to them.
	{name: "PVC_CABA-BDI_BW0.25", app: "PVC", design: config.DesignCABABDI,
		tune: func(c *config.Config) { c.BWScale = 0.25 }},
	{name: "PVC_CABA-BDI_BW0.25_faults", app: "PVC", design: config.DesignCABABDI,
		tune: func(c *config.Config) {
			c.BWScale = 0.25
			c.Faults = faults.Config{Seed: 7, BitFlipRate: 0.05, MDCorruptRate: 0.02,
				ResponseDelayRate: 0.05, ResponseDelayCycles: 200}
		},
		check: requireRecovery},
	// JPEG's stores do not compress, so the adaptive disable (Section 6)
	// turns compression off on SM after SM: its checkpoints carry a
	// failure streak and set disable flags.
	{name: "JPEG_CABA-BDI", app: "JPEG", design: config.DesignCABABDI,
		splitCheck: func(t *testing.T, saver *gpu.Simulator) {
			if gpu.CompressionDisabledSMs(saver) == 0 {
				t.Fatal("no SM has compression disabled at the split-50 checkpoint")
			}
		}},
	// Dropped responses end in a wedge, whose error text and cycle every
	// variant must reproduce.
	{name: "PVC_Base_dropped-responses", app: "PVC", design: config.DesignBase,
		tune: func(c *config.Config) { c.Faults = faults.Config{Seed: 7, ResponseDropRate: 0.5} },
		check: func(t *testing.T, ref refRun) {
			if !strings.Contains(ref.err, "wedged") {
				t.Fatalf("error %q, want a wedge", ref.err)
			}
		}},
}

// requireRecovery asserts that a fault campaign injected, detected and
// recovered faults.
func requireRecovery(t *testing.T, ref refRun) {
	if ref.err != "" {
		t.Fatalf("fault campaign failed: %s", ref.err)
	}
	if ref.s.FaultsInjected == 0 || ref.s.FaultsDetected == 0 || ref.s.FaultsRecovered == 0 {
		t.Fatalf("faults injected %d, detected %d, recovered %d; want each above 0",
			ref.s.FaultsInjected, ref.s.FaultsDetected, ref.s.FaultsRecovered)
	}
}

// TestDifferential is the harness every execution strategy answers to.
// Each row runs with observation off and with it on (SampleEvery 500 and
// AttributeStalls); at each level the reference is the row's plain run.
// Every variant must match the reference on the error text, the cycle
// count, every stats.Sim counter, the decompression mismatches and the
// output bytes, and with observation on also on the sampled series and
// the per-warp stall attribution. The variants:
//
//   - per-cycle: the quiescence cache off, every SM's full tick every
//     cycle (both levels);
//   - repeat: a second identical run (both levels);
//   - one per result-neutral Config field, derived by reflection from
//     ResultConfig and set by neutralSetters (observation on);
//   - split-N: the run checkpointed near N% of its cycles and restored
//     into a simulator whose memory was never prepared (observation on).
//
// The "on" reference must equal the "off" one except for the series and
// the attribution, which observation off leaves nil.
func TestDifferential(t *testing.T) {
	neutral := neutralFields(t)
	var setters []string
	for name := range neutralSetters {
		setters = append(setters, name)
	}
	sort.Strings(setters)
	if !reflect.DeepEqual(neutral, setters) {
		t.Fatalf("result-neutral Config fields %v, fields with a setter %v: every field ResultConfig zeroes needs exactly one setter", neutral, setters)
	}
	for _, row := range diffRows {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			off := row.config()
			on := off
			on.SampleEvery = 500
			on.AttributeStalls = true
			// The per-cycle oracle runs first, to the workload's own cap;
			// past twice its cycles a broken cache stops with a cycle-cap
			// error instead of spinning to that cap.
			slow, _ := simulate(t, row, off, true, 0, nil)
			limit := 2*slow.cycles + 1000
			refOff, _ := simulate(t, row, off, false, limit, nil)
			refOn, _ := simulate(t, row, on, false, limit, nil)
			if row.check != nil {
				row.check(t, refOff)
			}
			t.Run("off", func(t *testing.T) {
				if refOff.series != nil || refOff.stalls != nil {
					t.Fatal("observation off must leave the series and the stall attribution nil")
				}
				t.Run("per-cycle", func(t *testing.T) { sameRun(t, refOff, slow, true) })
				t.Run("repeat", func(t *testing.T) {
					got, _ := simulate(t, row, off, false, limit, nil)
					sameRun(t, refOff, got, true)
				})
			})
			t.Run("on", func(t *testing.T) {
				if refOn.series == nil || refOn.series.Len() == 0 || refOn.stalls == nil {
					t.Fatal("observation on recorded no series or no stall attribution")
				}
				sameRun(t, refOff, refOn, false)
				t.Run("per-cycle", func(t *testing.T) {
					got, _ := simulate(t, row, on, true, limit, nil)
					sameRun(t, refOn, got, true)
				})
				t.Run("repeat", func(t *testing.T) {
					got, _ := simulate(t, row, on, false, limit, nil)
					sameRun(t, refOn, got, true)
				})
				var ckpts []blob
				for _, name := range setters {
					t.Run(name, func(t *testing.T) {
						cfg := on
						neutralSetters[name](&cfg, refOn.cycles, t.TempDir())
						got, blobs := simulate(t, row, cfg, false, limit, nil)
						sameRun(t, refOn, got, true)
						if cfg.CheckpointEvery > 0 {
							if len(blobs) == 0 {
								t.Fatalf("no checkpoint in %d cycles", got.cycles)
							}
							ckpts = blobs
						}
					})
				}
				for _, pct := range splits {
					t.Run(fmt.Sprintf("split-%d", pct), func(t *testing.T) {
						if ckpts == nil {
							cfg := on
							neutralSetters["CheckpointEvery"](&cfg, refOn.cycles, "")
							_, ckpts = simulate(t, row, cfg, false, limit, nil)
						}
						b := splitPoint(t, ckpts, refOn.cycles*pct/100)
						got, _ := simulate(t, row, on, false, limit, b.data)
						sameRun(t, refOn, got, true)
					})
				}
			})
		})
	}
}

// splitPoint picks the first checkpoint at or after cycle target, or the
// last one.
func splitPoint(t *testing.T, ckpts []blob, target uint64) blob {
	t.Helper()
	if len(ckpts) == 0 {
		t.Fatal("no checkpoints to split at")
	}
	for _, b := range ckpts {
		if b.cycle >= target {
			return b
		}
	}
	return ckpts[len(ckpts)-1]
}

// neutralFields lists, sorted, the Config fields ResultConfig zeroes: a
// field is result-neutral iff setting it leaves ResultConfig unchanged.
func neutralFields(t *testing.T) []string {
	t.Helper()
	var zero config.Config
	typ := reflect.TypeOf(zero)
	var out []string
	for i := range typ.NumField() {
		c := zero
		gpu.Perturb(t, reflect.ValueOf(&c).Elem().Field(i))
		if c.ResultConfig() == zero.ResultConfig() {
			out = append(out, typ.Field(i).Name)
		}
	}
	sort.Strings(out)
	return out
}
