// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 2 and Section 6) on the simulator. Each FigN
// function runs the required (application x design) grid — in parallel —
// and renders the same rows/series the paper reports, returning the data
// for programmatic checks (bench_test.go asserts the headline shapes).
package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	caba "github.com/caba-sim/caba"
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
	// Checkpoint, when non-empty, persists every completed run to this
	// JSONL file as the sweep goes, and pre-loads it on start so an
	// interrupted sweep resumes where it stopped. The file's header
	// records Scale and Seed; resuming with different values is an error
	// (the cached cells would not match the requested sweep).
	//
	// It also enables mid-run cell snapshots: each in-flight simulation
	// checkpoints its complete state every CheckpointEvery cycles into
	// <Checkpoint>.d/<cell>.ckpt, so a cell that is killed, times out or
	// crashes resumes from its last snapshot on the next sweep instead of
	// restarting from cycle zero — and converges to the bit-identical
	// result an uninterrupted run produces.
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
	return Options{Scale: 0.2, Seed: 1, Parallel: 0, Out: out}
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

// runKey identifies one simulation in a sweep.
type runKey struct {
	app     string
	design  string
	bwScale float64
}

// String renders the key as the stable "app/design@bw" checkpoint form.
func (k runKey) String() string {
	return k.app + "/" + k.design + "@" + strconv.FormatFloat(k.bwScale, 'g', -1, 64) + "x"
}

func parseRunKey(s string) (runKey, error) {
	slash := strings.Index(s, "/")
	at := strings.LastIndex(s, "@")
	if slash < 0 || at < slash || !strings.HasSuffix(s, "x") {
		return runKey{}, fmt.Errorf("experiments: malformed run key %q", s)
	}
	bw, err := strconv.ParseFloat(s[at+1:len(s)-1], 64)
	if err != nil {
		return runKey{}, fmt.Errorf("experiments: malformed run key %q: %w", s, err)
	}
	return runKey{app: s[:slash], design: s[slash+1 : at], bwScale: bw}, nil
}

// sweep runs every (app, design, bw) combination on a bounded worker
// pool. Failures never abort the grid: every run is panic-isolated,
// deadline-bounded (RunTimeout) and retried (Retries), and whatever
// still fails becomes one joined error returned ALONGSIDE the completed
// cells — callers render partial figures with holes rather than nothing.
// With Checkpoint set, completed cells are persisted as they finish and
// skipped on the next invocation.
func (o *Options) sweep(apps []string, designs []caba.Design, bws []float64) (map[runKey]*caba.Result, error) {
	if len(bws) == 0 {
		bws = []float64{1.0}
	}
	type job struct {
		key    runKey
		design caba.Design
	}
	results := make(map[runKey]*caba.Result, len(apps)*len(designs)*len(bws))
	ck, err := o.openCheckpoint(results)
	if err != nil {
		return nil, err
	}
	defer ck.close()
	done := make(map[runKey]bool, len(results))
	for k := range results {
		done[k] = true
	}

	if o.FarmURL != "" {
		err := o.farmSweep(apps, designs, bws, done, results, ck)
		return results, err
	}

	ctx := o.ctx()
	jobs := make(chan job)
	var mu sync.Mutex
	var errs []error
	var wg sync.WaitGroup
	for w := 0; w < o.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				res, err := o.runOne(ctx, j.design, j.key)
				mu.Lock()
				if err != nil {
					errs = append(errs, fmt.Errorf("%s: %w", j.key, err))
				} else {
					results[j.key] = res
					if werr := ck.append(j.key, res); werr != nil {
						errs = append(errs, werr)
					}
				}
				mu.Unlock()
			}
		}()
	}
	// Dispatch honors cancellation: once ctx ends, no further cell is
	// handed out — the sweep drains the in-flight runs (themselves
	// interrupted through the same ctx) and returns partial results.
	cancelled := false
dispatch:
	for _, a := range apps {
		for _, d := range designs {
			for _, bw := range bws {
				key := runKey{a, d.Name, bw}
				if done[key] {
					continue
				}
				select {
				case jobs <- job{key, d}:
				case <-ctx.Done():
					cancelled = true
					break dispatch
				}
			}
		}
	}
	close(jobs)
	wg.Wait()
	if cancelled || ctx.Err() != nil {
		errs = append(errs, fmt.Errorf("experiments: sweep cancelled: %w", context.Cause(ctx)))
	}
	return results, errors.Join(errs...)
}

// runOne executes a single grid cell with retry-with-backoff around the
// panic-isolated, deadline-bounded attempt.
func (o *Options) runOne(ctx context.Context, design caba.Design, key runKey) (*caba.Result, error) {
	backoff := o.RetryBackoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	var res *caba.Result
	var err error
	for attempt := 0; ; attempt++ {
		res, err = o.attemptOne(ctx, design, key)
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
func (o *Options) attemptOne(ctx context.Context, design caba.Design, key runKey) (res *caba.Result, err error) {
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
	cfg := o.cfg()
	cfg.BWScale = key.bwScale
	run := o.runHook
	if run == nil {
		run = func(ctx context.Context, cfg caba.Config, design caba.Design, app string, seed int64) (*caba.Result, error) {
			if path := o.cellCheckpointPath(key); path != "" {
				cfg.CheckpointEvery = o.CheckpointEvery
				if cfg.CheckpointEvery == 0 {
					cfg.CheckpointEvery = defaultCellCheckpointEvery
				}
				return caba.RunCheckpointed(ctx, cfg, design, app, seed, path)
			}
			return caba.RunContext(ctx, cfg, design, app, seed)
		}
	}
	return run(ctx, cfg, design, key.app, o.Seed)
}

// defaultCellCheckpointEvery is the mid-run snapshot cadence when the
// sweep enables cell checkpointing without choosing one: frequent enough
// that a killed quick-scale cell loses little work, sparse enough that
// serialization stays a rounding error next to simulation.
const defaultCellCheckpointEvery = 100_000

// cellCheckpointPath returns the mid-run snapshot file for one grid cell
// ("" when sweep checkpointing is off, or the snapshot directory cannot
// be created — the cell then just runs without mid-run resume).
func (o *Options) cellCheckpointPath(key runKey) string {
	if o.Checkpoint == "" {
		return ""
	}
	dir := o.Checkpoint + ".d"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return ""
	}
	name := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '-', r == '_':
			return r
		}
		return '_'
	}, key.String())
	return filepath.Join(dir, name+".ckpt")
}

// --- Sweep checkpointing ---

// ckMeta is the checkpoint's header line: the sweep parameters the cached
// cells depend on.
type ckMeta struct {
	Scale float64 `json:"scale"`
	Seed  int64   `json:"seed"`
}

// ckLine is one JSONL checkpoint record: the header (first line) carries
// Meta, every other line one completed cell.
type ckLine struct {
	Meta   *ckMeta      `json:"meta,omitempty"`
	Key    string       `json:"key,omitempty"`
	Result *caba.Result `json:"result,omitempty"`
}

// checkpoint appends completed cells to the JSONL file. A nil receiver
// (no Checkpoint configured) is a no-op on every method.
type checkpoint struct {
	f   *os.File
	enc *json.Encoder
}

// openCheckpoint loads a prior checkpoint (if any) into results and
// returns an open appender. A header mismatch (different Scale/Seed) is
// an error: those cells belong to a different sweep.
func (o *Options) openCheckpoint(results map[runKey]*caba.Result) (*checkpoint, error) {
	if o.Checkpoint == "" {
		return nil, nil
	}
	meta := ckMeta{Scale: o.Scale, Seed: o.Seed}
	if raw, err := os.ReadFile(o.Checkpoint); err == nil && len(raw) > 0 {
		dec := json.NewDecoder(strings.NewReader(string(raw)))
		var header ckLine
		if err := dec.Decode(&header); err != nil || header.Meta == nil {
			return nil, fmt.Errorf("experiments: checkpoint %s: missing or malformed header", o.Checkpoint)
		}
		if *header.Meta != meta {
			return nil, fmt.Errorf("experiments: checkpoint %s was written for scale=%v seed=%d, this sweep uses scale=%v seed=%d — delete it or match the parameters",
				o.Checkpoint, header.Meta.Scale, header.Meta.Seed, meta.Scale, meta.Seed)
		}
		// intact tracks the byte offset just past the last whole record
		// (including its newline). A torn final line — the previous sweep
		// was killed mid-append — is both tolerated AND truncated away, so
		// the re-opened appender never writes a new record onto the tail
		// of a half-written one.
		intact := consumeNewlines(raw, dec.InputOffset())
		torn := false
		for {
			var line ckLine
			if err := dec.Decode(&line); err != nil {
				torn = !errors.Is(err, io.EOF)
				break
			}
			intact = consumeNewlines(raw, dec.InputOffset())
			if line.Key == "" || line.Result == nil {
				continue
			}
			key, err := parseRunKey(line.Key)
			if err != nil {
				return nil, fmt.Errorf("experiments: checkpoint %s: %w", o.Checkpoint, err)
			}
			results[key] = line.Result
		}
		if torn {
			if err := os.Truncate(o.Checkpoint, intact); err != nil {
				return nil, fmt.Errorf("experiments: checkpoint: truncating torn record: %w", err)
			}
		}
		f, err := os.OpenFile(o.Checkpoint, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("experiments: checkpoint: %w", err)
		}
		return &checkpoint{f: f, enc: json.NewEncoder(f)}, nil
	} else if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("experiments: checkpoint: %w", err)
	}
	f, err := os.OpenFile(o.Checkpoint, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("experiments: checkpoint: %w", err)
	}
	ck := &checkpoint{f: f, enc: json.NewEncoder(f)}
	if err := ck.enc.Encode(ckLine{Meta: &meta}); err != nil {
		f.Close()
		return nil, fmt.Errorf("experiments: checkpoint: %w", err)
	}
	return ck, nil
}

// consumeNewlines extends a decoder offset past the record's trailing
// newline(s), so truncation at that offset keeps the file line-aligned.
func consumeNewlines(raw []byte, off int64) int64 {
	for off < int64(len(raw)) && (raw[off] == '\n' || raw[off] == '\r') {
		off++
	}
	return off
}

func (ck *checkpoint) append(key runKey, res *caba.Result) error {
	if ck == nil {
		return nil
	}
	if err := ck.enc.Encode(ckLine{Key: key.String(), Result: res}); err != nil {
		return fmt.Errorf("experiments: checkpoint write: %w", err)
	}
	return nil
}

func (ck *checkpoint) close() {
	if ck != nil {
		ck.f.Close()
	}
}

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
