package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	caba "github.com/caba-sim/caba"
)

// WorkerConfig tunes one worker process.
type WorkerConfig struct {
	// Name identifies the worker in leases, logs and attempt history.
	Name string
	// CellTimeout bounds each cell's wall clock; a cell that exceeds it
	// is reported as a transient failure (the coordinator retries it
	// under the attempt cap). 0 disables the deadline.
	CellTimeout time.Duration
	// Deprecated: ignored; SMs always tick serially.
	SMWorkers int
	// CheckpointEvery overrides the mid-run checkpoint-upload cadence in
	// simulated cycles when the cell's own config leaves it unset
	// (default 100,000 — the sweep layer's quick-scale default).
	CheckpointEvery uint64
	// MemLimit caps each cell's live heap in bytes (0 = unlimited).
	// debug.SetMemoryLimit steers the GC toward the budget and a soft
	// watchdog aborts the cell with a typed resource-exhausted failure
	// when live heap still crosses it — the coordinator retries the cell
	// (preferring a different worker) and the abort feeds the
	// poison-cell circuit breaker.
	MemLimit int64
	// CPUTime bounds each cell's consumed CPU time — user+system across
	// every core, distinct from the CellTimeout wall clock (0 =
	// unlimited). Exceeding it aborts the cell the same way MemLimit
	// does.
	CPUTime time.Duration
	// MinDiskFree skips checkpoint uploads while the worker's local
	// filesystem (scratch, crash reports) has less than this many bytes
	// free (0 = no preflight). Skipping costs resume granularity, never
	// the run.
	MinDiskFree int64
	// PollInterval is the idle re-poll delay when the coordinator has no
	// work and suggests none (default 200ms).
	PollInterval time.Duration
	// ExitWhenDrained stops Run when the coordinator reports every
	// submitted cell terminal, instead of polling for future sweeps.
	ExitWhenDrained bool
	// Logf receives worker log lines (nil = silent).
	Logf func(format string, args ...any)
}

// hookAction is what a test hook tells the worker to do next.
type hookAction int

const (
	hookContinue hookAction = iota
	// hookDie makes the worker abandon the cell with no report and stop
	// its loop — the protocol-level image of a killed process: the lease
	// simply stops being fed and expires.
	hookDie
)

// workerHooks are the chaos-test seams. All nil in production.
type workerHooks struct {
	// beforeRun runs after the lease is granted and before heartbeats
	// start. Blocking here emulates a hung worker (the lease expires
	// underneath); returning an error reports it as the cell's failure
	// without running the simulation.
	beforeRun func(cell Cell, attempt int) error
	// beforeRunAction runs right after the lease is granted and may
	// order the worker to vanish (hookDie) before touching the cell —
	// the image of a process killed between lease and first instruction.
	beforeRunAction func(cell Cell, attempt int) hookAction
	// memLimitFor overrides cfg.MemLimit per cell (the soak harness
	// injects OOM pressure on chosen cells here).
	memLimitFor func(cell Cell, attempt int) int64
	// afterUpload runs after each successful checkpoint upload.
	afterUpload func(cell Cell, cycle uint64, uploads int) hookAction
}

// Worker leases cells from a coordinator and simulates them through the
// panic-safe caba.RunResumable path: resume blob fetched from the
// coordinator when one exists, periodic checkpoints uploaded back, the
// result (or classified failure) reported at the end. On shutdown
// (context cancellation) it drains gracefully: the in-flight run stops
// at the next interrupt poll, the lease is released for immediate
// re-queue, and the last uploaded checkpoint carries the progress.
type Worker struct {
	base   string
	client *http.Client
	cfg    WorkerConfig
	hooks  workerHooks

	killed bool // set by hookDie
}

// NewWorker builds a worker against the coordinator's base URL.
func NewWorker(coordinatorURL string, cfg WorkerConfig) *Worker {
	if cfg.Name == "" {
		cfg.Name = "worker"
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 200 * time.Millisecond
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 100_000
	}
	return &Worker{
		base:   strings.TrimRight(coordinatorURL, "/"),
		client: &http.Client{},
		cfg:    cfg,
	}
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// errStaleLease marks a coordinator 409: the lease is gone and the cell
// has moved on, so the worker abandons it.
var errStaleLease = errors.New("farm: lease is stale")

// errKilled is the hookDie sentinel.
var errKilled = errors.New("farm: worker killed by chaos hook")

// Run is the worker loop: lease, simulate, report, repeat. It returns
// nil on graceful shutdown (ctx cancelled, or the sweep drained with
// ExitWhenDrained set).
func (w *Worker) Run(ctx context.Context) error {
	for {
		if ctx.Err() != nil || w.killed {
			return nil
		}
		lr, err := w.lease(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			w.logf("farm worker %s: lease: %v", w.cfg.Name, err)
			if !sleepCtx(ctx, w.cfg.PollInterval) {
				return nil
			}
			continue
		}
		if lr.Lease == "" || lr.Cell == nil {
			if lr.Drained && w.cfg.ExitWhenDrained {
				return nil
			}
			wait := w.cfg.PollInterval
			if lr.RetryMs > 0 {
				wait = time.Duration(lr.RetryMs) * time.Millisecond
			}
			if !sleepCtx(ctx, wait) {
				return nil
			}
			continue
		}
		w.runCell(ctx, lr)
	}
}

// sleepCtx sleeps d unless ctx ends first; it reports whether the sleep
// completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

// runCell executes one leased cell end to end.
func (w *Worker) runCell(ctx context.Context, lr *LeaseResponse) {
	cell := *lr.Cell
	if h := w.hooks.beforeRunAction; h != nil && h(cell, lr.Attempt) == hookDie {
		w.killed = true
		return
	}
	if h := w.hooks.beforeRun; h != nil {
		if err := h(cell, lr.Attempt); err != nil {
			w.report(&ReportRequest{Lease: lr.Lease, Error: err.Error()})
			return
		}
	}

	// Heartbeats: keep the lease alive from the moment the worker holds
	// it until the run ends — fetching the resume blob below can wait
	// behind other workers' uploads for longer than the TTL. A 409 means
	// the lease expired underneath us (we were presumed dead); the run is
	// cancelled — finishing a zombie cell is wasted work and its report
	// would be discarded anyway.
	leaseCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	hbStop := make(chan struct{})
	hbDone := make(chan struct{})
	ttl := time.Duration(lr.TTLMs) * time.Millisecond
	if ttl <= 0 {
		ttl = 15 * time.Second
	}
	var lastCycle atomic.Uint64
	go func() {
		defer close(hbDone)
		t := time.NewTicker(ttl / 3)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-leaseCtx.Done():
				return
			case <-t.C:
				if err := w.heartbeat(lr.Lease, lastCycle.Load()); err != nil {
					if errors.Is(err, errStaleLease) {
						cancel(errStaleLease)
						return
					}
					w.logf("farm worker %s: heartbeat: %v", w.cfg.Name, err)
				}
			}
		}
	}()

	var resume []byte
	if lr.Checkpoint {
		blob, err := w.fetchCheckpoint(leaseCtx, lr.Lease)
		if err != nil {
			// A missing or unreachable blob is not fatal: the engine's
			// contract is resume-when-possible, restart-from-zero
			// otherwise, converging to the identical result.
			w.logf("farm worker %s: checkpoint fetch for %s: %v (starting from cycle 0)", w.cfg.Name, cell.Label(), err)
		} else {
			resume = blob
		}
	}

	// The resource watchdog cancels through the cause-carrying cancel so
	// the classification switch below can read the typed *ResourceError
	// back out of context.Cause; the wall-clock timeout wraps afterwards
	// and stays a plain DeadlineExceeded.
	memLimit := w.cfg.MemLimit
	if h := w.hooks.memLimitFor; h != nil {
		memLimit = h(cell, lr.Attempt)
	}
	stopWatch := startResourceWatch(cancel, memLimit, w.cfg.CPUTime)
	defer stopWatch()
	runCtx := leaseCtx
	if w.cfg.CellTimeout > 0 {
		var tcancel context.CancelFunc
		runCtx, tcancel = context.WithTimeout(leaseCtx, w.cfg.CellTimeout)
		defer tcancel()
	}

	cfg := cell.Config
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = w.cfg.CheckpointEvery
	}
	// Workers never write local observability files; series and stall
	// attribution still travel inside the Result.
	cfg.MetricsFile = ""
	cfg.TraceFile = ""

	uploads := 0
	save := func(cycle uint64, blob []byte) error {
		lastCycle.Store(cycle)
		if w.cfg.MinDiskFree > 0 {
			// Disk preflight: a nearly-full local filesystem means crash
			// reports and scratch may be about to fail; stop adding
			// upload traffic and let the run continue checkpoint-free.
			if free := diskFree("."); free >= 0 && free < w.cfg.MinDiskFree {
				w.logf("farm worker %s: skipping checkpoint upload for %s (local disk %d bytes free, floor %d)",
					w.cfg.Name, cell.Label(), free, w.cfg.MinDiskFree)
				return nil
			}
		}
		if err := w.uploadCheckpoint(lr.Lease, blob); err != nil {
			if errors.Is(err, errStaleLease) {
				cancel(errStaleLease)
				return err
			}
			// Best effort: a transient upload failure costs resume
			// granularity, not the run.
			w.logf("farm worker %s: checkpoint upload: %v", w.cfg.Name, err)
			return nil
		}
		uploads++
		if h := w.hooks.afterUpload; h != nil && h(cell, cycle, uploads) == hookDie {
			w.killed = true
			return errKilled
		}
		return nil
	}

	res, resumedAt, err := caba.RunResumable(runCtx, cfg, cell.Design, cell.App, cell.Seed, resume, save)
	close(hbStop)
	<-hbDone

	var re *ResourceError
	switch {
	case err == nil:
		w.report(&ReportRequest{Lease: lr.Lease, Result: res, ResumeCycle: resumedAt})
	case errors.Is(err, errKilled):
		// Chaos kill: vanish. No report, no release — the lease expires.
	case errors.As(context.Cause(runCtx), &re):
		// The resource watchdog aborted the cell: the worker survived
		// its budget, the cell did not. Reported as a typed
		// resource-exhausted failure so the coordinator can retry it
		// elsewhere and feed the poison breaker.
		w.logf("farm worker %s: %s aborted: %v", w.cfg.Name, cell.Label(), re)
		w.report(&ReportRequest{Lease: lr.Lease, Error: re.Error(), Resource: re.Kind})
	case errors.Is(context.Cause(runCtx), errStaleLease):
		// The cell was re-queued while we ran; nothing we say counts.
	case ctx.Err() != nil:
		// Graceful drain: the worker is shutting down, the cell is
		// healthy. Release it for immediate re-queue; the last uploaded
		// checkpoint carries the progress.
		w.report(&ReportRequest{Lease: lr.Lease, Released: true})
	default:
		rep := &ReportRequest{Lease: lr.Lease, Error: err.Error()}
		var we *caba.WedgeError
		if errors.As(err, &we) {
			// Deterministic: same cell, same wedge, every time.
			rep.Wedge = true
		}
		w.report(rep)
	}
}

// --- HTTP client plumbing ---

func (w *Worker) lease(ctx context.Context) (*LeaseResponse, error) {
	var resp LeaseResponse
	if err := w.postJSON(ctx, "/lease", &LeaseRequest{Worker: w.cfg.Name}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

func (w *Worker) heartbeat(lease string, cycle uint64) error {
	return w.postJSON(context.Background(), "/heartbeat", &HeartbeatRequest{Lease: lease, Cycle: cycle}, nil)
}

// report delivers a cell outcome, retrying transient transport failures:
// losing a computed result to one connection reset would waste a whole
// simulation. A 409 (stale lease) is final — the cell moved on.
func (w *Worker) report(rep *ReportRequest) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if err = w.postJSON(context.Background(), "/report", rep, nil); err == nil {
			return
		}
		if errors.Is(err, errStaleLease) {
			w.logf("farm worker %s: report discarded (stale lease)", w.cfg.Name)
			return
		}
		time.Sleep(50 * time.Millisecond << attempt)
	}
	w.logf("farm worker %s: report failed: %v (lease will expire and re-queue)", w.cfg.Name, err)
}

func (w *Worker) uploadCheckpoint(lease string, blob []byte) error {
	req, err := http.NewRequest(http.MethodPost, w.base+"/checkpoint?lease="+lease, bytes.NewReader(blob))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return statusErr(resp)
}

func (w *Worker) fetchCheckpoint(ctx context.Context, lease string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/checkpoint?lease="+lease, nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if err := statusErr(resp); err != nil {
		return nil, err
	}
	return io.ReadAll(io.LimitReader(resp.Body, maxBlobBytes))
}

func (w *Worker) postJSON(ctx context.Context, path string, body, out any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := statusErr(resp); err != nil {
		return err
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// statusErr converts a non-2xx response into an error, mapping 409 to
// errStaleLease.
func statusErr(resp *http.Response) error {
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return nil
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode == http.StatusConflict {
		return fmt.Errorf("%w: %s", errStaleLease, strings.TrimSpace(string(msg)))
	}
	return fmt.Errorf("farm: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
}
