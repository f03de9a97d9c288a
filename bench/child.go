package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	caba "github.com/caba-sim/caba"
	"github.com/caba-sim/caba/internal/core"
	"github.com/caba-sim/caba/internal/stats"
)

// runOpts are one run's settings.
type runOpts struct {
	seed     int64
	seconds  time.Duration
	trace    bool
	traceOut string // spans file; "" keeps spans in memory only
	// maxCells > 0 caps the cells of a run (quick checks).
	maxCells int
}

// childReport is what a workload's child process prints as the last line
// of its standard output.
type childReport struct {
	Workload string `json:"workload"`
	// ReadyNS is the wall clock (Unix ns) at the first measured dispatch:
	// set-up ends there.
	ReadyNS int64 `json:"ready_unix_ns"`
	// SetupScale takes the set-up time to the reference host's speed
	// (refClock.scale over setupQuiets quiet points right after set-up).
	SetupScale float64            `json:"setup_scale"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Failures   []string           `json:"failures,omitempty"`
	Passes     int                `json:"passes"`
	Window     float64            `json:"window_s"`
	TailPct    float64            `json:"tail_percentile"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
	Digest     string             `json:"result_digest,omitempty"`
	Notes      []string           `json:"notes,omitempty"`

	failedCells map[int]bool
	runFailures int
}

// fail records one failed correctness check; cell < 0 marks a check of
// the run as a whole. Failed counts distinct failing cells plus run-level
// failures.
func (r *childReport) fail(cell int, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if cell < 0 {
		r.runFailures++
	} else {
		msg = fmt.Sprintf("cell %d: %s", cell, msg)
		if r.failedCells == nil {
			r.failedCells = make(map[int]bool)
		}
		r.failedCells[cell] = true
	}
	r.Failures = append(r.Failures, msg)
	r.Failed = len(r.failedCells) + r.runFailures
}

// setupQuiets is how many quiet points a child makes right after set-up,
// to scale its set-up time.
const setupQuiets = 4

// workRoot holds each run's working state (the farm's store), relative to
// the working directory: the benchmark reads and writes only there.
const workRoot = ".bench_build"

// runChild is a workload's child process: set up (package init has already
// run), run one untimed warm-up cell (PVC/Base, seed 0), then measure —
// unless setupOnly, which stops at the end of set-up.
func runChild(w *workload, o runOpts, setupOnly bool) *childReport {
	rep := &childReport{Workload: w.name}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		rep.fail(-1, "work dir: %v", err)
		return rep
	}
	work, err := os.MkdirTemp(workRoot, w.name+"-")
	if err != nil {
		rep.fail(-1, "work dir: %v", err)
		return rep
	}
	defer os.RemoveAll(work)
	var rig *farmRig
	if w.farm {
		if rig, err = startFarm(farmDir(work, 0), w.executors, nil); err != nil {
			rep.fail(-1, "farm set-up: %v", err)
			return rep
		}
	}
	if _, err := w.runUntraced(cellSpec{App: "PVC", Design: caba.Base}); err != nil {
		rep.fail(-1, "warm-up cell: %v", err)
	}
	rep.ReadyNS = time.Now().UnixNano()
	clock := newRefClock()
	for i := 0; i < setupQuiets; i++ {
		clock.quiet()
	}
	rep.SetupScale = clock.scale()
	clock.reset()
	switch {
	case setupOnly:
		if rig != nil {
			rig.stop()
		}
	case w.farm:
		w.measureFarm(rig, work, o, rep, clock)
	default:
		w.measureInproc(o, rep, clock)
	}
	for k, v := range rep.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rep.fail(-1, "metric %s is not finite", k)
			rep.Metrics[k] = 0
		}
	}
	return rep
}

// checkOutcomes applies the per-cell correctness gate to a window: every
// execution must pass checkResult, and every rep of a cell must return
// the same result as its first.
func checkOutcomes(cfg caba.Config, outs []cellOutcome, rep *childReport) {
	first := make(map[int]*caba.Result)
	for _, o := range outs {
		fail := func(format string, args ...any) {
			rep.fail(o.spec.Index, "%s/%s seed %d rep %d: %s", o.spec.App, o.spec.Design.Name, o.spec.Seed, o.spec.Rep, fmt.Sprintf(format, args...))
		}
		switch {
		case o.err != nil:
			fail("%v", o.err)
		case o.res != nil:
			if err := checkResult(cfg, o.res); err != nil {
				fail("%v", err)
			}
			r0, ok := first[o.spec.Index]
			if !ok {
				first[o.spec.Index] = o.res
			} else if d := o.res.Stats.Diff(r0.Stats); len(d) > 0 || o.res.Cycles != r0.Cycles {
				fail("result differs from an earlier rep: %v", d)
			}
		}
	}
}

// firstReps keeps the outcomes of rep 0: one per distinct cell.
func firstReps(outs []cellOutcome) []cellOutcome {
	var out []cellOutcome
	for _, o := range outs {
		if o.spec.Rep == 0 {
			out = append(out, o)
		}
	}
	return out
}

// summarize fills the report's end-to-end numbers, digest and notes from
// an untraced window of every rep; window is its measured length and
// clock holds the kernel timings taken over it.
func (w *workload) summarize(outs []cellOutcome, window float64, clock *refClock, passes int, rep *childReport) map[string]float64 {
	first := firstReps(outs)
	rep.Attempted, rep.Passes, rep.Window = len(first), passes, window
	rep.TailPct = tailPercentile(len(first))
	scale := clock.scale()
	if scale <= 0 {
		rep.fail(-1, "no reference-kernel timings")
		scale = 1
	}
	m, host := hostMetrics(w, outs, rep.TailPct, scale)
	rep.Notes = append(rep.Notes, fmt.Sprintf("host times scaled by %.4g (kernel lower quartile %.4g ms over %d timings); as measured: cells_per_s %.4g, cell_ms_p50 %.4g ms, cell_ms_tail %.4g ms, sim_minstr_per_s %.4g",
		scale, kernelRefMS/scale, clock.samples(), host["cells_per_s"], host["cell_ms_p50"], host["cell_ms_tail"], host["sim_minstr_per_s"]))
	m["sim_speedup_geomean"] = geomean(speedups(first, ""))
	var st []*stats.Sim
	for _, o := range first {
		if o.res != nil {
			st = append(st, o.res.Stats)
		}
	}
	rep.Digest = digest(st)
	if w.name == "fig10-sweep" {
		// The paper's headline (§6): CABA-BDI improves the compression
		// suite by 41.7% on average.
		const paper = 1.417
		bdi := geomean(speedups(first, caba.CABABDI.Name))
		rep.Notes = append(rep.Notes, fmt.Sprintf("CABA-BDI speedup geomean %.4fx vs the paper's %.3fx (§6): gap %+.1f%%", bdi, paper, 100*(bdi/paper-1)))
	} else {
		rep.Notes = append(rep.Notes, "sim_speedup_geomean: the repo holds no reference result for these designs, so the model is unvalidated here")
	}
	return m
}

// layerDefaults sets every per-layer metric a traced run left unset to 0,
// the value of a layer the workload does not exercise.
func layerDefaults(m map[string]float64) {
	for _, d := range perLayer {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = 0
		}
	}
}

func merge(dst, src map[string]float64) {
	for k, v := range src {
		dst[k] = v
	}
}

func results(outs []cellOutcome) []*caba.Result {
	var out []*caba.Result
	for _, o := range outs {
		out = append(out, o.res)
	}
	return out
}

// measureInproc runs the in-process workloads: an untraced window per
// rep through caba.RunContext, and with tracing a replay of one rep
// through the layers' public functions, then the line probes.
func (w *workload) measureInproc(o runOpts, rep *childReport, clock *refClock) {
	cfg := w.config()
	passes := w.cells(o)
	var rss rssMeter
	var all []cellOutcome
	window := 0.0
	for r := 0; r < reps; r++ {
		rss.start()
		outs, win := runPool(w.executors, repCells(passes, r), clock, w.runUntraced)
		rss.stop()
		all = append(all, outs...)
		window += win
	}
	checkOutcomes(cfg, all, rep)
	m := w.summarize(all, window, clock, len(passes), rep)
	rep.Metrics = m
	rss.report(rep)
	if !o.trace {
		return
	}

	outs := firstReps(all)
	rec := newRecorder()
	var mu sync.Mutex
	traced := make(map[int]*tracedCell)
	_, twindow := runPool(w.executors, repCells(passes, 0), clock, func(c cellSpec) (*caba.Result, error) {
		tc, err := w.runTraced(rec, c)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		traced[c.Index] = tc
		mu.Unlock()
		return tc.res, nil
	})
	var cycles, instrs uint64
	for _, out := range outs {
		tc := traced[out.spec.Index]
		if out.res == nil {
			continue
		}
		if tc == nil {
			rep.fail(out.spec.Index, "traced run failed")
			continue
		}
		if d := tc.res.Stats.Diff(out.res.Stats); len(d) > 0 || tc.res.Cycles != out.res.Cycles || tc.res.FFCycles != out.res.FFCycles {
			rep.fail(out.spec.Index, "traced statistics differ from untraced: %v", d)
		}
		cycles += tc.res.Cycles
		instrs += tc.res.Stats.WarpInstrs + tc.res.Stats.AssistInstrs
	}
	merge(m, spanLayerMetrics(rec.snapshot(), cycles, instrs))
	m["trace.overhead_frac"] = twindow/(window/reps) - 1

	var totals probeTotals
	lib := core.BuildLibrary()
	for _, out := range outs {
		if tc := traced[out.spec.Index]; tc != nil && out.spec.Pass == 0 {
			if err := probeLines(lib, tc.alg, tc.lines, &totals); err != nil {
				rep.fail(out.spec.Index, "line probe: %v", err)
			}
		}
	}
	merge(m, simLayerMetrics(results(outs)))
	merge(m, totals.metrics())
	layerDefaults(m)
	writeSpans(rec, o, w, rep)
}

// farmSamples is how many farm results are re-simulated in-process.
const farmSamples = 12

// farmDir is the store of the farm that runs rep r.
func farmDir(work string, r int) string { return filepath.Join(work, fmt.Sprintf("farm-%d", r)) }

// measureFarm runs the farm workload: one untraced window per rep, the
// first on the rig set-up started and each later one on a fresh farm (a
// farm serves a cell it has stored from its cache), the farm-vs-in-process
// sample check, the restart over the first rep's store, and with tracing
// a replay of one rep on a fresh coordinator behind the route timer, then
// the snapshot probes.
func (w *workload) measureFarm(rig *farmRig, work string, o runOpts, rep *childReport, clock *refClock) {
	cfg := w.config()
	passes := w.cells(o)
	var fw *farmWindow // the first rep's
	var all []cellOutcome
	var rss rssMeter
	window := 0.0
	for r := 0; r < reps; r++ {
		var err error
		if r > 0 {
			if rig, err = startFarm(farmDir(work, r), w.executors, nil); err != nil {
				rep.fail(-1, "farm set-up: %v", err)
				return
			}
		}
		rss.start()
		win, err := w.runFarmWindow(rig, passes, clock)
		rss.stop()
		rig.stop()
		if err != nil {
			rep.fail(-1, "farm window: %v", err)
			return
		}
		if r == 0 {
			fw = win
		}
		for _, out := range win.outs {
			out.spec.Rep = r
			all = append(all, out)
		}
		window += win.window
	}
	checkOutcomes(cfg, all, rep)
	m := w.summarize(all, window, clock, len(passes), rep)
	rep.Metrics = m
	rss.report(rep)
	w.checkFarmSamples(fw.outs, rep)
	restartMS, resubmitMS, hit, err := farmRestart(farmDir(work, 0), fw)
	if err != nil {
		rep.fail(-1, "farm restart: %v", err)
	}
	if !o.trace {
		return
	}

	m["farm.restart_ms"], m["farm.resubmit_ms"], m["farm.cache_hit_frac"] = restartMS, resubmitMS, hit
	m["farm.queue_wait_ms_p50"] = median(fw.queueMS)
	m["farm.checkpoints"] = float64(fw.counts.checkpoints)
	m["farm.requeues"] = float64(fw.counts.requeues)
	m["farm.events_dropped"] = float64(fw.counts.dropped)

	rec := newRecorder()
	traced, err := startFarm(filepath.Join(work, "farm-traced"), w.executors, rec)
	if err != nil {
		rep.fail(-1, "traced farm set-up: %v", err)
		return
	}
	fw2, err := w.runFarmWindow(traced, passes, clock)
	traced.stop()
	if err != nil {
		rep.fail(-1, "traced farm window: %v", err)
		return
	}
	for i, key := range fw.keys {
		if a, b := fw.results[key], fw2.results[key]; a != nil && (b == nil || len(b.Stats.Diff(a.Stats)) > 0) {
			rep.fail(fw.outs[i].spec.Index, "traced farm result differs from untraced")
		}
	}
	merge(m, spanLayerMetrics(rec.snapshot(), 0, 0))
	m["trace.overhead_frac"] = fw2.window/(window/reps) - 1

	var totals probeTotals
	var save, load, blob []float64
	lib := core.BuildLibrary()
	for n, out := range fw.outs[:len(passes[0])] {
		// Every 8th cell of pass 0, rotating through the designs so the
		// probes see compressed as well as raw machines.
		if n%8 != (n/8)%len(w.designs) || out.res == nil {
			continue
		}
		p, err := w.snapshotProbe(out.spec, out.res.Cycles)
		if err != nil {
			rep.fail(out.spec.Index, "snapshot probe: %v", err)
			continue
		}
		save, load, blob = append(save, p.saveMS), append(load, p.loadMS), append(blob, p.blobMB)
		if err := probeLines(lib, p.alg, p.lines, &totals); err != nil {
			rep.fail(out.spec.Index, "line probe: %v", err)
		}
	}
	m["snapshot.save_ms_p50"], m["snapshot.load_ms_p50"], m["snapshot.blob_mb_p50"] = median(save), median(load), median(blob)
	merge(m, simLayerMetrics(results(fw.outs)))
	merge(m, totals.metrics())
	layerDefaults(m)
	writeSpans(rec, o, w, rep)
}

// checkFarmSamples re-simulates evenly spaced farm cells in-process with
// caba.RunContext (untimed, after the window) and requires the farm's
// result to match field for field.
func (w *workload) checkFarmSamples(outs []cellOutcome, rep *childReport) {
	var picks []cellOutcome
	for i := 0; i < farmSamples && len(outs) > 0; i++ {
		o := outs[i*len(outs)/farmSamples]
		if len(picks) == 0 || picks[len(picks)-1].spec.Index != o.spec.Index {
			picks = append(picks, o)
		}
	}
	errs := make([]error, len(picks))
	var wg sync.WaitGroup
	sem := make(chan struct{}, w.executors)
	for i, o := range picks {
		if o.res == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			local, err := caba.RunContext(context.Background(), w.config(), o.spec.Design, o.spec.App, o.spec.Seed)
			if err == nil {
				if d := local.Stats.Diff(o.res.Stats); len(d) > 0 || local.Cycles != o.res.Cycles {
					err = fmt.Errorf("farm result differs from in-process: %v", d)
				}
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			rep.fail(picks[i].spec.Index, "%v", err)
		}
	}
}

// writeSpans stores the traced run's spans when asked to.
func writeSpans(rec *recorder, o runOpts, w *workload, rep *childReport) {
	if o.traceOut == "" {
		return
	}
	if err := rec.write(o.traceOut, w.name); err != nil {
		rep.fail(-1, "writing spans: %v", err)
	}
}
