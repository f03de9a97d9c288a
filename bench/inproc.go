package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	caba "github.com/caba-sim/caba"
	"github.com/caba-sim/caba/internal/compress"
	"github.com/caba-sim/caba/internal/config"
	"github.com/caba-sim/caba/internal/core"
	"github.com/caba-sim/caba/internal/energy"
	"github.com/caba-sim/caba/internal/gpu"
	wl "github.com/caba-sim/caba/internal/workloads"
)

// runPool runs cells through n executors in a closed loop: an executor
// takes the next cell, in order, only once its previous one has finished.
// It makes a quiet point on clock first and then every quietEvery. It
// returns the outcomes in dispatch order and the window from the first
// dispatch to the last completion, in seconds.
func runPool(n int, cells []cellSpec, clock *refClock, do func(cellSpec) (*caba.Result, error)) ([]cellOutcome, float64) {
	jobs := make(chan cellSpec)
	done := make(chan cellOutcome, n) // a slot per executor: sending never blocks
	var wg sync.WaitGroup
	lastQuiet := clock.quiet()
	origin := time.Now()
	for e := 0; e < n; e++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range jobs {
				start := time.Since(origin).Seconds()
				res, err := do(c)
				done <- cellOutcome{spec: c, res: res, err: err, start: start, end: time.Since(origin).Seconds()}
			}
		}()
	}
	var outs []cellOutcome
	next, inFlight := 0, 0
	for next < len(cells) || inFlight > 0 {
		due := time.Since(lastQuiet) >= quietEvery
		switch {
		case next < len(cells) && inFlight < n && !due:
			jobs <- cells[next] // an executor is free: inFlight < n
			next++
			inFlight++
		case inFlight == 0: // a quiet point is due and nothing is in flight
			lastQuiet = clock.quiet()
		default:
			outs = append(outs, <-done)
			inFlight--
		}
	}
	close(jobs)
	wg.Wait()
	window := 0.0
	for _, o := range outs {
		window = max(window, o.end)
	}
	sortOutcomes(outs)
	return outs, window
}

// runUntraced is the measured path: the public caba.RunContext call a
// sweep user makes.
func (w *workload) runUntraced(c cellSpec) (*caba.Result, error) {
	return caba.RunContext(context.Background(), w.config(), c.Design, c.App, c.Seed)
}

// gated applies caba's static profiling gate (Section 4.3.1) the way
// caba.RunContext does: a CABA compression design on an application that
// is not memory-bound runs without its compression machinery, keeping its
// label and use case.
func gated(d caba.Design, app *wl.App) caba.Design {
	if d.Decomp == config.DecompCABA && !app.MemoryBound {
		g := caba.Base
		g.Name, g.UseCase = d.Name, d.UseCase
		return g
	}
	return d
}

// prepared is a simulator built the way caba.RunContext builds one, with
// each layer's call optionally wrapped in a span.
type prepared struct {
	cfg    caba.Config
	design caba.Design
	inst   *wl.Instance
	sim    *gpu.Simulator
}

// prepare runs Instantiate → gpu.New → Prepare for cell c under cfg,
// recording a span around each call when rec is non-nil.
func prepare(cfg caba.Config, c cellSpec, rec *recorder, root int) (p *prepared, err error) {
	app := wl.ByName(c.App)
	if app == nil {
		return nil, fmt.Errorf("unknown application %q", c.App)
	}
	p = &prepared{cfg: cfg, design: gated(c.Design, app)}
	timed := func(name string, f func()) {
		if rec == nil {
			f()
			return
		}
		id := rec.begin(c.Index, root, name)
		f()
		rec.end(id)
	}
	timed("workloads.instantiate", func() { p.inst, err = app.Instantiate(&p.cfg) })
	if err != nil {
		return nil, err
	}
	timed("gpu.new", func() { p.sim, err = gpu.New(&p.cfg, p.design, p.inst.Kernel) })
	if err != nil {
		return nil, err
	}
	timed("workloads.prepare", func() { p.inst.Prepare(p.sim, c.Seed) })
	return p, nil
}

// finish applies the energy model exactly as caba.RunContext does, so the
// statistics compare field for field with the untraced Result.
func (p *prepared) finish() {
	m := energy.DefaultModel()
	energy.Apply(&m, &p.cfg, p.design, p.sim.S)
}

// tracedCell is what the traced window keeps of one cell.
type tracedCell struct {
	res   *caba.Result // Cycles, FF counters and Stats only
	lines []probeLine  // pass-0 cells only
	alg   compress.AlgID
}

// runTraced simulates c through the layers' public functions with a span
// around each call: cell → {workloads.instantiate, gpu.new,
// workloads.prepare, gpu.run, energy.apply}. Pass-0 cells also keep a
// sample of their compressed lines for the line probes, captured after
// the cell's span closes.
func (w *workload) runTraced(rec *recorder, c cellSpec) (tc *tracedCell, err error) {
	defer func() {
		if r := recover(); r != nil {
			tc, err = nil, fmt.Errorf("traced %s/%s: panic: %v", c.App, c.Design.Name, r)
		}
	}()
	root := rec.begin(c.Index, 0, "cell")
	p, err := prepare(w.config(), c, rec, root)
	if err == nil {
		id := rec.begin(c.Index, root, "gpu.run")
		err = p.sim.Run(p.inst.MaxCycles())
		rec.end(id)
	}
	if err == nil {
		id := rec.begin(c.Index, root, "energy.apply")
		p.finish()
		rec.end(id)
	}
	rec.end(root)
	if err != nil {
		return nil, err
	}
	tc = &tracedCell{res: p.result(), alg: p.sim.Dom.Alg}
	if c.Pass == 0 {
		tc.lines = p.captureLines()
	}
	return tc, nil
}

// result packages what the traced-versus-untraced check compares.
func (p *prepared) result() *caba.Result {
	r := &caba.Result{Cycles: p.sim.Cycles(), Stats: p.sim.S}
	r.FFSkips, r.FFCycles = p.sim.FastForwardStats()
	return r
}

// probeLine is one compressed line of a cell with its raw bytes.
type probeLine struct {
	raw [compress.LineSize]byte
	c   compress.Compressed
}

// maxProbeLines bounds the lines probed per cell.
const maxProbeLines = 256

// captureLines samples up to maxProbeLines of the cell's compressed input
// lines, evenly spaced over the input region.
func (p *prepared) captureLines() []probeLine {
	n := p.inst.InBytes / compress.LineSize
	step := max(1, n/maxProbeLines)
	var out []probeLine
	for i := uint64(0); i < n && len(out) < maxProbeLines; i += step {
		la := wl.InBase + i*compress.LineSize
		c := p.sim.Dom.State(la)
		if !c.IsCompressed() {
			continue
		}
		var l probeLine
		p.sim.Dom.ReadRaw(la, l.raw[:])
		l.c = c
		out = append(out, l)
	}
	return out
}

// probeTotals accumulates the line probes of a run.
type probeTotals struct {
	lines                    int
	decompNS, decompInstrs   float64
	compressNS, decompressNS float64
}

// probeLines times the assist-warp decompression routine
// (core.RunDecompression) and the reference codec (compress.Compress and
// compress.Decompress, with the cell's algorithm) on a cell's lines, then
// checks that the routine reproduces the reference decompression and that
// the reference codec round-trips every line.
func probeLines(lib *core.Store, alg compress.AlgID, lines []probeLine, t *probeTotals) error {
	if len(lines) == 0 {
		return nil
	}
	routineOut := make([][]byte, len(lines))
	start := time.Now()
	for i, l := range lines {
		out, ex, err := core.RunDecompression(lib, l.c)
		if err != nil {
			return fmt.Errorf("assist decompression: %w", err)
		}
		routineOut[i] = append([]byte(nil), out...)
		t.decompInstrs += float64(ex.Executed)
	}
	t.decompNS += float64(time.Since(start))

	refOut := make([][compress.LineSize]byte, len(lines))
	start = time.Now()
	for i, l := range lines {
		if err := compress.Decompress(l.c, refOut[i][:]); err != nil {
			return fmt.Errorf("reference decompression: %w", err)
		}
	}
	t.decompressNS += float64(time.Since(start))

	recomp := make([]compress.Compressed, len(lines))
	start = time.Now()
	for i, l := range lines {
		c, err := compress.Compress(alg, l.raw[:])
		if err != nil {
			return fmt.Errorf("reference compression: %w", err)
		}
		recomp[i] = c
	}
	t.compressNS += float64(time.Since(start))
	t.lines += len(lines)

	var buf [compress.LineSize]byte
	for i, l := range lines {
		if !bytes.Equal(routineOut[i], refOut[i][:]) {
			return fmt.Errorf("assist routine output differs from reference decompression (alg %v enc %d)", l.c.Alg, l.c.Enc)
		}
		if c := recomp[i]; c.IsCompressed() {
			if err := compress.Decompress(c, buf[:]); err != nil || buf != l.raw {
				return fmt.Errorf("reference codec does not round-trip a %v line", c.Alg)
			}
		}
	}
	return nil
}

func (t *probeTotals) metrics() map[string]float64 {
	n := float64(max(t.lines, 1))
	return map[string]float64{
		"core.decomp_ns_per_line":         t.decompNS / n,
		"core.decomp_instrs_per_line":     t.decompInstrs / n,
		"compress.compress_ns_per_line":   t.compressNS / n,
		"compress.decompress_ns_per_line": t.decompressNS / n,
	}
}

// checkResult is the per-cell correctness gate: no racing-write
// decompression mismatch, and the issue-slot breakdown covers exactly
// Cycles × NumSchedulers × NumSMs slots.
func checkResult(cfg caba.Config, res *caba.Result) error {
	if res.DecompMismatches != 0 {
		return fmt.Errorf("%d decompression mismatches", res.DecompMismatches)
	}
	var slots uint64
	for _, v := range res.Stats.IssueSlots {
		slots += v
	}
	if want := res.Cycles * uint64(cfg.NumSchedulers) * uint64(cfg.NumSMs); slots != want {
		return fmt.Errorf("issue slots %d != cycles×schedulers×SMs %d", slots, want)
	}
	return nil
}

// sortOutcomes orders outcomes by cell index (dispatch order).
func sortOutcomes(outs []cellOutcome) {
	sort.Slice(outs, func(i, j int) bool { return outs[i].spec.Index < outs[j].spec.Index })
}
