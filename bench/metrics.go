package main

import (
	caba "github.com/caba-sim/caba"
	"github.com/caba-sim/caba/internal/stats"
)

// metricDef declares one reported metric. Bound is the share of the
// baseline median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the numbers a sweep user waits for: host times at the
// reference host's speed (refClock), memory as measured, and two
// simulated numbers. A bound must hold the ten-run spread (interquartile
// range ÷ median) of unchanged code; on the reference host the host-time
// and memory spreads reach 14% (README.md, "Host noise"), so their bounds
// are 25%, the widest a gate accepts. sim_speedup_geomean is simulated:
// for one seed and length it must repeat exactly (--compare checks that),
// so its bound covers only the spread between seeds, at most 0.9%, three
// times over. ok_frac is 1 − fail_frac, the share of attempted cells that
// passed every check; its bound of 0 makes any failure a regression.
var endToEnd = []metricDef{
	{"cells_per_s", "cells/s", "higher", 0.25},
	{"cell_ms_p50", "ms", "lower", 0.25},
	{"cell_ms_tail", "ms", "lower", 0.25},
	{"sim_minstr_per_s", "Minstr/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"sim_speedup_geomean", "x", "higher", 0.02},
	{"ok_frac", "ratio", "higher", 0},
}

// perLayer are the per-layer numbers of a traced run, named after the
// repo's modules. Simulated ratios come from the Result each public call
// returns; host times from spans the benchmark records around the calls.
// A layer a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{"sweep.slot_idle_frac", "ratio", "lower", 0},
	{"workloads.instantiate_ms_p50", "ms", "lower", 0},
	{"workloads.prepare_ms_p50", "ms", "lower", 0},
	{"workloads.setup_frac", "ratio", "lower", 0},
	{"gpu.new_ms_p50", "ms", "lower", 0},
	{"gpu.run_ms_p50", "ms", "lower", 0},
	{"gpu.ns_per_cycle", "ns/cycle", "lower", 0},
	{"gpu.ns_per_warp_instr", "ns/instr", "lower", 0},
	{"gpu.ff_skip_frac", "ratio", "higher", 0},
	{"gpu.issue_active_frac", "ratio", "higher", 0},
	{"gpu.stall_memory_frac", "ratio", "lower", 0},
	{"gpu.stall_datadep_frac", "ratio", "lower", 0},
	{"gpu.stall_compute_frac", "ratio", "lower", 0},
	{"gpu.idle_frac", "ratio", "lower", 0},
	{"gpu.memo_hit_rate", "ratio", "higher", 0},
	{"gpu.prefetch_useful_frac", "ratio", "higher", 0},
	{"core.assist_instr_frac", "ratio", "lower", 0},
	{"core.assist_killed_frac", "ratio", "lower", 0},
	{"core.decomp_ns_per_line", "ns/line", "lower", 0},
	{"core.decomp_instrs_per_line", "instr/line", "lower", 0},
	{"compress.ratio_geomean", "x", "higher", 0},
	{"compress.compress_ns_per_line", "ns/line", "lower", 0},
	{"compress.decompress_ns_per_line", "ns/line", "lower", 0},
	{"mem.l1_hit_rate", "ratio", "higher", 0},
	{"mem.l2_hit_rate", "ratio", "higher", 0},
	{"mem.md_hit_rate", "ratio", "higher", 0},
	{"mem.bw_util", "ratio", "lower", 0},
	{"mem.load_latency_cycles", "cycles", "lower", 0},
	{"mem.dram_bursts_per_kinstr", "bursts/kinstr", "lower", 0},
	{"snapshot.save_ms_p50", "ms", "lower", 0},
	{"snapshot.load_ms_p50", "ms", "lower", 0},
	{"snapshot.blob_mb_p50", "MB", "lower", 0},
	{"farm.queue_wait_ms_p50", "ms", "lower", 0},
	{"farm.lease_ms_p50", "ms", "lower", 0},
	{"farm.report_ms_p50", "ms", "lower", 0},
	{"farm.checkpoint_ms_p50", "ms", "lower", 0},
	{"farm.sweep_ms", "ms", "lower", 0},
	{"farm.checkpoints", "count", "lower", 0},
	{"farm.requeues", "count", "lower", 0},
	{"farm.events_dropped", "count", "lower", 0},
	{"farm.restart_ms", "ms", "lower", 0},
	{"farm.resubmit_ms", "ms", "lower", 0},
	{"farm.cache_hit_frac", "ratio", "higher", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
	{"trace.layer_cover_frac", "ratio", "higher", 0},
}

// cellOutcome is one executed cell as the benchmark saw it. Start and End
// are offsets from the window's first dispatch; for farm cells they are
// the lease and done events on /progress.
type cellOutcome struct {
	spec       cellSpec
	res        *caba.Result
	err        error
	start, end float64 // seconds since the window opened
	untimed    bool    // completed, but its farm progress events were dropped
}

// hostMetrics derives the untraced window's end-to-end metrics, with the
// tail at percentile tailPct, and its slot-idle fraction, at the reference
// host's speed (host times times scale; see refClock), and returns the
// same metrics as measured for the notes. A cell's host time is the
// least over its timed reps (see reps). The window is the closed loop
// replayed at those times: each cell, in dispatch order, starts on the
// first of the workload's executors to come free.
func hostMetrics(w *workload, outs []cellOutcome, tailPct, scale float64) (ref, host map[string]float64) {
	best := make(map[int]float64) // cell index → least seconds
	for _, o := range outs {
		if o.res == nil || o.untimed {
			continue
		}
		if d, ok := best[o.spec.Index]; !ok || o.end-o.start < d {
			best[o.spec.Index] = o.end - o.start
		}
	}
	var costs, lat []float64
	instrs := 0.0
	for _, o := range outs {
		d, ok := best[o.spec.Index]
		if o.spec.Rep != 0 || !ok {
			continue
		}
		costs, lat = append(costs, d), append(lat, d*1000)
		instrs += float64(o.res.Stats.WarpInstrs + o.res.Stats.AssistInstrs)
	}
	window := makespan(costs, w.executors)
	busy := 0.0
	for _, c := range costs {
		busy += c
	}
	host = map[string]float64{
		"cells_per_s":      float64(len(costs)) / window,
		"cell_ms_p50":      hdPercentile(lat, 50),
		"cell_ms_tail":     hdPercentile(lat, tailPct),
		"sim_minstr_per_s": instrs / 1e6 / window,
	}
	ref = map[string]float64{
		"cells_per_s":          host["cells_per_s"] / scale,
		"cell_ms_p50":          host["cell_ms_p50"] * scale,
		"cell_ms_tail":         host["cell_ms_tail"] * scale,
		"sim_minstr_per_s":     host["sim_minstr_per_s"] / scale,
		"sweep.slot_idle_frac": 1 - busy/(float64(w.executors)*window),
	}
	return ref, host
}

// speedups returns Base cycles ÷ design cycles for every non-Base cell
// whose Base twin (same app and seed) completed, optionally restricted to
// one design.
func speedups(outs []cellOutcome, design string) []float64 {
	type appSeed struct {
		app  string
		seed int64
	}
	base := make(map[appSeed]uint64)
	for _, o := range outs {
		if o.res != nil && o.spec.Design.Name == caba.Base.Name {
			base[appSeed{o.spec.App, o.spec.Seed}] = o.res.Cycles
		}
	}
	var out []float64
	for _, o := range outs {
		name := o.spec.Design.Name
		if o.res == nil || name == caba.Base.Name || (design != "" && name != design) {
			continue
		}
		if b, ok := base[appSeed{o.spec.App, o.spec.Seed}]; ok && o.res.Cycles > 0 {
			out = append(out, float64(b)/float64(o.res.Cycles))
		}
	}
	return out
}

// simLayerMetrics derives the simulated per-layer ratios from the
// Results: ratios of sums over the cells, so large cells weigh more.
func simLayerMetrics(results []*caba.Result) map[string]float64 {
	var s stats.Sim
	var ffCycles uint64
	var ratios []float64
	for _, r := range results {
		if r == nil {
			continue
		}
		st := r.Stats
		s.Cycles += r.Cycles
		ffCycles += r.FFCycles
		s.WarpInstrs += st.WarpInstrs
		s.AssistInstrs += st.AssistInstrs
		s.AssistWarps += st.AssistWarps
		s.AssistKilled += st.AssistKilled
		for k := range st.IssueSlots {
			s.IssueSlots[k] += st.IssueSlots[k]
		}
		s.MemoHits += st.MemoHits
		s.MemoMisses += st.MemoMisses
		s.PrefetchUseful += st.PrefetchUseful
		s.PrefetchTriggers += st.PrefetchTriggers
		s.L1Hits += st.L1Hits
		s.L1Misses += st.L1Misses
		s.L2Hits += st.L2Hits
		s.L2Misses += st.L2Misses
		s.MDHits += st.MDHits
		s.MDMisses += st.MDMisses
		s.DRAMBusyCycles += st.DRAMBusyCycles
		s.MemCycles += st.MemCycles
		s.LoadLatTotal += st.LoadLatTotal
		s.LoadCount += st.LoadCount
		s.DRAMBursts += st.DRAMBursts
		if r.Design != caba.Base.Name {
			ratios = append(ratios, r.CompressionRatio)
		}
	}
	instrs := s.WarpInstrs + s.AssistInstrs
	br := s.IssueBreakdown()
	return map[string]float64{
		"gpu.ff_skip_frac":           frac(ffCycles, s.Cycles),
		"gpu.issue_active_frac":      br[stats.Active],
		"gpu.stall_memory_frac":      br[stats.MemoryStall],
		"gpu.stall_datadep_frac":     br[stats.DataDepStall],
		"gpu.stall_compute_frac":     br[stats.ComputeStall],
		"gpu.idle_frac":              br[stats.IdleCycle],
		"gpu.memo_hit_rate":          frac(s.MemoHits, s.MemoHits+s.MemoMisses),
		"gpu.prefetch_useful_frac":   frac(s.PrefetchUseful, s.PrefetchTriggers),
		"core.assist_instr_frac":     frac(s.AssistInstrs, instrs),
		"core.assist_killed_frac":    frac(s.AssistKilled, s.AssistWarps),
		"compress.ratio_geomean":     geomean(ratios),
		"mem.l1_hit_rate":            s.L1HitRate(),
		"mem.l2_hit_rate":            s.L2HitRate(),
		"mem.md_hit_rate":            s.MDHitRate(),
		"mem.bw_util":                s.BWUtilization(),
		"mem.load_latency_cycles":    s.AvgLoadLatency(),
		"mem.dram_bursts_per_kinstr": frac(s.DRAMBursts, instrs) * 1000,
	}
}

func frac(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// spanLayerMetrics attributes the traced window's cell wall time to the
// layers called from the benchmark's executor. cycles and instrs are the
// traced cells' simulated totals, the denominators of the engine's
// per-cycle and per-instruction host cost.
func spanLayerMetrics(spans []span, cycles, instrs uint64) map[string]float64 {
	durs := make(map[string][]float64)
	sums := make(map[string]int64)
	self := selfTimes(spans)
	var layerSelf int64
	for i, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.dur())/1e6)
		sums[s.Name] += s.dur()
		if s.Parent != 0 { // a layer call made by a cell
			layerSelf += self[i]
		}
	}
	cell := float64(sums["cell"])
	if cell == 0 {
		cell = 1 // no in-process cells: every ratio below reads 0
	}
	return map[string]float64{
		"workloads.instantiate_ms_p50": median(durs["workloads.instantiate"]),
		"workloads.prepare_ms_p50":     median(durs["workloads.prepare"]),
		"gpu.new_ms_p50":               median(durs["gpu.new"]),
		"gpu.run_ms_p50":               median(durs["gpu.run"]),
		"workloads.setup_frac":         float64(sums["workloads.instantiate"]+sums["gpu.new"]+sums["workloads.prepare"]) / cell,
		"gpu.ns_per_cycle":             float64(sums["gpu.run"]) / float64(max(cycles, 1)),
		"gpu.ns_per_warp_instr":        float64(sums["gpu.run"]) / float64(max(instrs, 1)),
		"trace.layer_cover_frac":       float64(layerSelf) / cell,
		"farm.lease_ms_p50":            median(durs["farm.POST /lease"]),
		"farm.report_ms_p50":           median(durs["farm.POST /report"]),
		"farm.checkpoint_ms_p50":       median(durs["farm.POST /checkpoint"]),
		"farm.sweep_ms":                median(durs["farm.POST /sweep"]),
	}
}
