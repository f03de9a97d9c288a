package main

import (
	"math"

	caba "github.com/caba-sim/caba"
	"github.com/caba-sim/caba/experiments"
	wl "github.com/caba-sim/caba/internal/workloads"
)

// workload is one named input set: a grid of (application × design)
// cells, dispatched app-major like experiments' sweeps, in passes. Pass p
// runs the whole grid at seed S+p.
type workload struct {
	name    string
	apps    []string
	designs []caba.Design
	scale   float64
	// executors is the closed loop's concurrency: cells in flight at once
	// (in-process executors, or farm workers). Fixed, not host-derived, so
	// the workload is the same on every host.
	executors int
	// smWorkers is Config.SMWorkers of every cell: 1 wherever cells run
	// concurrently (what experiments' planner picks for a grid), 0 (the
	// engine default, GOMAXPROCS) for the single-client latency workload.
	smWorkers int
	farm      bool
	// passSeconds is about one pass's window on the reference host
	// (2-vCPU Xeon) in a quiet spell, rounded up. It only sizes a run:
	// --seconds S runs round(S/(reps·passSeconds)) passes, at least one,
	// so a run's cells depend on S and the seed alone, never on how fast
	// the host happens to be.
	passSeconds float64
}

// reps is how many times a run executes each of its cells. The reference
// host is a small VM whose CPUs flip, every second or so, between two
// speeds about 1.5× apart as its neighbours' load comes and goes; a cell's
// host time is the least of its reps, the time it takes when nothing else
// slows it. The reps of a cell lie a whole rep of the run apart, so they
// seldom all fall in slow spells. Each cell's results must be the
// same in every rep.
const reps = 3

var allWorkloads = []*workload{
	// The Figure 10/11 grid, the largest paper sweep, at scale 0.015 so
	// that its three reps fit a run. Assist-warp decompression, the MD
	// cache and DRAM do most of the work; MUM under FPC/C-Pack/Best runs
	// about two seconds per cell against a 40 ms median, so both the sweep
	// tail and per-cell engine speed show.
	{
		name:        "fig10-sweep",
		apps:        experiments.CompressSuite(),
		designs:     []caba.Design{caba.Base, caba.CABAFPC, caba.CABABDI, caba.CABACPack, caba.CABABest},
		scale:       0.015,
		executors:   2,
		smWorkers:   1,
		passSeconds: 5.2,
	},
	// The bypass workload: the profiling gate keeps compression off and
	// fast-forward skips almost nothing, so the decoded core, issue and
	// SFU do the work and the assist-warp controller runs memoization and
	// prefetch routines instead of decompression. A compression,
	// memory-side or fast-forward change should leave it unchanged. A
	// compute-bound cell costs about a second whatever the scale, so for
	// three reps to fit a run the grid holds seven of the twelve
	// compute-bound apps: the use cases' showcases TBL (memoization) and
	// STRD (prefetch), three more costly ones and the two cheapest.
	{
		name:        "compute-usecase",
		apps:        []string{"hs", "dmr", "SLA", "lc", "STO", "TBL", "STRD"},
		designs:     []caba.Design{caba.Base, caba.CABAMemo, caba.CABAPrefetch},
		scale:       0.05,
		executors:   2,
		smWorkers:   1,
		passSeconds: 8,
	},
	// Interactive single-run latency: one client, one cell at a time, with
	// caba.Baseline() defaults (the cabasim path). The only workload where
	// the two-phase parallel tick is on — the other side of the question
	// "one cell at SMWorkers=2, or two cells at SMWorkers=1".
	{
		name:        "cell-latency",
		apps:        []string{"PVC", "sssp", "MM", "BFS", "STRD"},
		designs:     []caba.Design{caba.Base, caba.CABABDI},
		scale:       0.05,
		executors:   1,
		smWorkers:   0,
		passSeconds: 2,
	},
	// The distributed sweep: coordinator on loopback, two in-process
	// workers uploading checkpoints. Farm RPC, leases, the sealed result
	// store, journal replay and the snapshot codec do work the in-process
	// sweeps never touch. MUM is left out so no single cell dominates a
	// pass.
	{
		name:        "farm",
		apps:        farmApps(),
		designs:     []caba.Design{caba.Base, caba.HWBDIMem, caba.CABABDI, caba.CABAFPC},
		scale:       0.05,
		executors:   2,
		smWorkers:   1,
		farm:        true,
		passSeconds: 6,
	},
}

// farmApps is the memory-bound part of the compression suite, minus MUM.
func farmApps() []string {
	var out []string
	for _, a := range wl.CompressApps() {
		if a.MemoryBound && a.Name != "MUM" {
			out = append(out, a.Name)
		}
	}
	return out
}

func workloadByName(name string) *workload {
	for _, w := range allWorkloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// cellSpec is one execution of a grid cell: the only inputs the simulator
// receives are (app, design, scale, seed). Index numbers the run's
// distinct cells; the reps of one cell share it.
type cellSpec struct {
	Index  int
	Pass   int
	Rep    int
	App    string
	Design caba.Design
	Seed   int64
}

// pass returns pass p of the grid for run seed s, numbering cells from
// first.
func (w *workload) pass(s int64, p, first int) []cellSpec {
	var cells []cellSpec
	for _, a := range w.apps {
		for _, d := range w.designs {
			cells = append(cells, cellSpec{Index: first + len(cells), Pass: p, App: a, Design: d, Seed: s + int64(p)})
		}
	}
	return cells
}

// cells returns the distinct cells of a run: the passes o.seconds asks
// for, capped at o.maxCells when that is set.
func (w *workload) cells(o runOpts) [][]cellSpec {
	passes := max(1, int(math.Round(o.seconds.Seconds()/(reps*w.passSeconds))))
	var out [][]cellSpec
	n := 0
	for p := 0; p < passes; p++ {
		batch := w.pass(o.seed, p, n)
		if o.maxCells > 0 && n+len(batch) > o.maxCells {
			batch = batch[:o.maxCells-n]
		}
		if len(batch) == 0 {
			break
		}
		out = append(out, batch)
		n += len(batch)
	}
	return out
}

// repCells lists rep r of a run's cells in dispatch order: every pass,
// in order.
func repCells(passes [][]cellSpec, r int) []cellSpec {
	var out []cellSpec
	for _, p := range passes {
		for _, c := range p {
			c.Rep = r
			out = append(out, c)
		}
	}
	return out
}

// config is the simulated configuration of every cell of w.
func (w *workload) config() caba.Config {
	cfg := caba.Baseline()
	cfg.Scale = w.scale
	cfg.SMWorkers = w.smWorkers
	return cfg
}
