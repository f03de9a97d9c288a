// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 2 and Section 6) on the simulator. Each FigN
// function runs the required (application x design) grid — in parallel —
// and renders the same rows/series the paper reports, returning the data
// for programmatic checks (bench_test.go asserts the headline shapes).
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"sync"
	"time"

	caba "github.com/caba-sim/caba"
	"github.com/caba-sim/caba/internal/farm"
	"github.com/caba-sim/caba/internal/stats"
	"github.com/caba-sim/caba/internal/workloads"
)

// Options configures an experiment sweep.
type Options struct {
	// Context, when non-nil, bounds the whole sweep: once it is
	// cancelled, no new cell is dispatched, in-flight runs are
	// interrupted at their next poll, and sweep returns the completed
	// cells alongside an error joining ctx's cause. Nil means no
	// external cancellation (context.Background()).
	Context context.Context
	// Scale shrinks working sets; 1.0 is paper scale. The default keeps a
	// laptop run in minutes while preserving shapes.
	Scale float64
	// Seed drives the synthetic data generators.
	Seed int64
	// Parallel bounds concurrent simulations (0 = GOMAXPROCS).
	Parallel int
	// Out receives the rendered tables (nil = discard).
	Out io.Writer

	// RunTimeout bounds each simulation's wall clock. A run that exceeds
	// it is interrupted, reported as that cell's error, and retried when
	// Retries allows. Zero disables the deadline.
	RunTimeout time.Duration
	// Retries re-attempts a failed run up to this many additional times
	// before the cell is declared broken.
	Retries int
	// RetryBackoff is the delay before the first retry, doubling per
	// attempt (default 100ms when Retries > 0).
	RetryBackoff time.Duration
	// Checkpoint, when non-empty, names a result-store directory in the
	// farm's layout (internal/farm.Store; FARM.md, "Cell identity"). The
	// sweep looks every cell up there before simulating it and stores
	// every completed cell, so an interrupted sweep resumes where it
	// stopped. Cells are addressed by farm.Cell.Key, which covers the
	// result-determining configuration, the design, the app and the seed:
	// a store written at another scale, seed or configuration serves
	// nothing to this sweep. A path naming a regular file (such as an old
	// JSONL checkpoint) is refused and left untouched.
	//
	// It also enables mid-run cell snapshots: each in-flight simulation
	// checkpoints its complete state every CheckpointEvery cycles into the
	// store's blobs/<key>.ckpt, so a cell that is killed, times out or
	// crashes resumes from its last snapshot on the next sweep instead of
	// restarting from cycle zero — and converges to the bit-identical
	// result an uninterrupted run produces. A failed cell leaves its crash
	// report beside the snapshot (blobs/<key>.ckpt.crash).
	Checkpoint string
	// CheckpointEvery is the mid-run snapshot cadence in simulated cycles
	// (0 = a default suited to quick-scale runs). Only meaningful with
	// Checkpoint set.
	CheckpointEvery uint64

	// FarmURL, when non-empty, dispatches the sweep's cells to a farm
	// coordinator (cmd/farmd) at this base URL instead of simulating
	// in-process: cells are submitted once, simulated by whatever worker
	// fleet is attached to the coordinator, deduped through its
	// content-addressed result store, and collected here. Scale, Seed and
	// per-cell bandwidth scaling travel inside each cell; Parallel,
	// RunTimeout and Retries are local execution knobs and do not apply
	// (the coordinator's lease/retry policy governs).
	FarmURL string

	// runHook replaces the simulation entry point in tests.
	runHook func(ctx context.Context, cfg caba.Config, design caba.Design, app string, seed int64) (*caba.Result, error)

	// memo is the in-memory cell-key → result map that every sweep
	// consults before the Checkpoint store and the simulator. Defaults
	// creates it, so every figure run from copies of one Options shares
	// each cell; a nil memo gives each sweep its own.
	memo *resultMap

	// farmDegradedWarned dedupes the once-per-sweep warning printed when
	// the coordinator's X-Farm-Health header reports a non-ok state.
	farmDegradedWarned bool

	// farmShed records whether the last coordinator response carried
	// X-Farm-Shed — a long-poll answered immediately to shed load. The
	// status loop paces itself on it instead of re-polling instantly,
	// which would turn the coordinator's protection into a hammer.
	farmShed bool
}

// Defaults returns the standard quick-run options.
func Defaults(out io.Writer) Options {
	return Options{Scale: 0.2, Seed: 1, Parallel: 0, Out: out, memo: newResultMap()}
}

func (o *Options) cfg() caba.Config {
	c := caba.Baseline()
	if o.Scale > 0 {
		c.Scale = o.Scale
	}
	return c
}

func (o *Options) out() io.Writer {
	if o.Out == nil {
		return io.Discard
	}
	return o.Out
}

func (o *Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

func (o *Options) workers() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// runKey names one grid cell for the figures that index a sweep's
// results.
type runKey struct {
	app     string
	design  string
	bwScale float64
}

// String renders the key as the "app/design@bw" label error messages use.
func (k runKey) String() string {
	return k.app + "/" + k.design + "@" + strconv.FormatFloat(k.bwScale, 'g', -1, 64) + "x"
}

// resultMap holds completed results by farm cell key.
type resultMap struct {
	mu sync.Mutex
	m  map[uint64]*caba.Result
}

func newResultMap() *resultMap { return &resultMap{m: make(map[uint64]*caba.Result)} }

func (r *resultMap) get(id uint64) *caba.Result {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m[id]
}

func (r *resultMap) put(id uint64, res *caba.Result) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m[id] = res
}

// sweepCell is one grid cell: the figures' name for it, the cell the
// simulator runs, and that cell's content address.
type sweepCell struct {
	key  runKey
	cell farm.Cell
	id   uint64
}

// gridCell builds the sweep cell for app under design at bandwidth bw.
func (o *Options) gridCell(app string, design caba.Design, bw float64) (sweepCell, error) {
	cfg := o.cfg()
	cfg.BWScale = bw
	c := sweepCell{key: runKey{app, design.Name, bw}, cell: farm.Cell{App: app, Seed: o.Seed, Config: cfg, Design: design}}
	var err error
	if c.id, err = c.cell.Key(); err != nil {
		return c, fmt.Errorf("experiments: cell %s: %w", c.key, err)
	}
	return c, nil
}

// sweep runs every (app, design, bw) combination. Each cell is looked up
// by its farm.Cell.Key in the Options' in-memory results, then in the
// Checkpoint store; only a cell that misses both is simulated, on a
// bounded worker pool or on the farm, and its result is written back to
// both. Failures never abort the grid: every run is panic-isolated,
// deadline-bounded (RunTimeout) and retried (Retries), and whatever
// still fails becomes one joined error returned ALONGSIDE the completed
// cells — callers render partial figures with holes rather than nothing.
// Failed cells are not stored.
func (o *Options) sweep(apps []string, designs []caba.Design, bws []float64) (map[runKey]*caba.Result, error) {
	if len(bws) == 0 {
		bws = []float64{1.0}
	}
	memo := o.memo
	if memo == nil {
		memo = newResultMap()
	}
	var store *farm.Store
	if o.Checkpoint != "" {
		var err error
		if store, err = farm.OpenStore(o.Checkpoint); err != nil {
			return nil, fmt.Errorf("experiments: checkpoint %s cannot be opened as a result-store directory: %w", o.Checkpoint, err)
		}
	}
	var grid, todo []sweepCell
	var errs []error
	for _, a := range apps {
		for _, d := range designs {
			for _, bw := range bws {
				c, err := o.gridCell(a, d, bw)
				if err != nil {
					return nil, err
				}
				grid = append(grid, c)
				if memo.get(c.id) != nil {
					continue
				}
				if store != nil {
					res, err := store.GetResult(c.id)
					if err != nil {
						errs = append(errs, fmt.Errorf("%s: %w", c.key, err))
					}
					if res != nil {
						memo.put(c.id, res)
						continue
					}
				}
				todo = append(todo, c)
			}
		}
	}

	if o.FarmURL != "" {
		errs = append(errs, o.farmSweep(todo, memo, store))
	} else {
		errs = append(errs, o.runLocal(todo, memo, store))
	}
	results := make(map[runKey]*caba.Result, len(grid))
	for _, c := range grid {
		if res := memo.get(c.id); res != nil {
			results[c.key] = res
		}
	}
	return results, errors.Join(errs...)
}

// keep records a completed cell in memo and, when the sweep has one, in
// store.
func keep(memo *resultMap, store *farm.Store, c sweepCell, res *caba.Result) error {
	memo.put(c.id, res)
	if store == nil {
		return nil
	}
	if err := store.PutResult(c.id, res); err != nil {
		return fmt.Errorf("%s: %w", c.key, err)
	}
	return nil
}

// runLocal simulates cells in-process on a bounded worker pool.
func (o *Options) runLocal(cells []sweepCell, memo *resultMap, store *farm.Store) error {
	ctx := o.ctx()
	jobs := make(chan sweepCell)
	var mu sync.Mutex
	var errs []error
	var wg sync.WaitGroup
	for w := 0; w < o.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range jobs {
				if ctx.Err() != nil {
					continue // handed out as the sweep was cancelled
				}
				ckpt := ""
				if store != nil {
					ckpt = store.BlobPath(c.id)
				}
				res, err := o.runOne(ctx, c.cell, ckpt)
				if err != nil {
					err = fmt.Errorf("%s: %w", c.key, err)
				} else {
					err = keep(memo, store, c, res)
				}
				if err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			}
		}()
	}
	// Dispatch honors cancellation: once ctx ends, no further cell is
	// handed out — the sweep drains the in-flight runs (themselves
	// interrupted through the same ctx) and returns partial results.
	cancelled := false
dispatch:
	for _, c := range cells {
		select {
		case jobs <- c:
		case <-ctx.Done():
			cancelled = true
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	if cancelled || ctx.Err() != nil {
		errs = append(errs, fmt.Errorf("experiments: sweep cancelled: %w", context.Cause(ctx)))
	}
	return errors.Join(errs...)
}

// runOne executes a single grid cell with retry-with-backoff around the
// panic-isolated, deadline-bounded attempt. A non-empty ckpt is the
// cell's mid-run snapshot file.
func (o *Options) runOne(ctx context.Context, c farm.Cell, ckpt string) (*caba.Result, error) {
	backoff := o.RetryBackoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	var res *caba.Result
	var err error
	for attempt := 0; ; attempt++ {
		res, err = o.attemptOne(ctx, c, ckpt)
		// A wedge is a deterministic outcome of the cell's fault stream,
		// not a transient failure: retrying replays the exact same wedge,
		// so it is reported immediately with its retry budget unspent.
		// A cancelled sweep likewise must not retry (the next attempt
		// would fail the same way) nor sit out the backoff.
		var we *caba.WedgeError
		if err == nil || attempt >= o.Retries || errors.As(err, &we) || ctx.Err() != nil {
			return res, err
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("experiments: retry abandoned: %w", context.Cause(ctx))
		case <-time.After(backoff << attempt):
		}
	}
}

// attemptOne makes one panic-isolated, deadline-bounded simulation
// attempt. The recover here is the sweep's own safety net: the caba entry
// points already convert internal panics to errors, and this guard keeps
// a worker goroutine alive even if the conversion itself has a bug (or a
// test runHook panics).
func (o *Options) attemptOne(ctx context.Context, c farm.Cell, ckpt string) (res *caba.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("experiments: run panicked: %v", r)
		}
	}()
	if o.RunTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.RunTimeout)
		defer cancel()
	}
	run := o.runHook
	if run == nil {
		run = func(ctx context.Context, cfg caba.Config, design caba.Design, app string, seed int64) (*caba.Result, error) {
			if ckpt != "" {
				cfg.CheckpointEvery = o.CheckpointEvery
				if cfg.CheckpointEvery == 0 {
					cfg.CheckpointEvery = defaultCellCheckpointEvery
				}
				return caba.RunCheckpointed(ctx, cfg, design, app, seed, ckpt)
			}
			return caba.RunContext(ctx, cfg, design, app, seed)
		}
	}
	return run(ctx, c.Config, c.Design, c.App, c.Seed)
}

// defaultCellCheckpointEvery is the mid-run snapshot cadence when the
// sweep enables cell checkpointing without choosing one: frequent enough
// that a killed quick-scale cell loses little work, sparse enough that
// serialization stays a rounding error next to simulation.
const defaultCellCheckpointEvery = 100_000

// appNames extracts names from descriptors.
func appNames(apps []*workloads.App) []string {
	out := make([]string, len(apps))
	for i, a := range apps {
		out[i] = a.Name
	}
	return out
}

// CompressSuite returns the 20-application compression-study pool.
func CompressSuite() []string { return appNames(workloads.CompressApps()) }

// Fig1Suite returns the 27-application Figure 1 pool.
func Fig1Suite() []string { return appNames(workloads.Fig1Apps()) }

// geomean computes the geometric mean of positive values.
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vs)))
}

// mean computes the arithmetic mean.
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// breakdownOf adapts the stats array for reporting.
func breakdownOf(r *caba.Result) [stats.NumStallKinds]float64 {
	return r.Stats.IssueBreakdown()
}
