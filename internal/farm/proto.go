// Package farm is the fault-tolerant distributed simulation sweep
// service: an HTTP coordinator that shards sweep cells across a fleet of
// worker processes and is robust by construction.
//
// The coordinator owns a durable work queue of cells (keyed by a
// content hash of everything that determines a cell's result), hands out
// lease-based assignments with heartbeats and deadlines, re-queues cells
// whose lease expires or whose worker dies mid-run — resuming from the
// worker's last uploaded checkpoint blob when one exists — classifies
// failures (transient errors retry with exponential backoff, jitter and
// a per-cell attempt cap; deterministic wedges fail fast and are never
// retried), and dedupes through a content-addressed result store so a
// repeated cell is a cache hit, not a re-simulation.
//
// Workers wrap each cell in the panic-safe caba.RunResumable path with a
// per-cell timeout and drain gracefully on shutdown (release the lease,
// keep the last uploaded checkpoint). The service degrades gracefully: a
// sweep with broken cells still returns every completed result plus a
// joined failure report, and a live progress endpoint streams cell
// lifecycle events and metrics samples as JSONL.
//
// The wire protocol is JSON over HTTP (this file). Everything that makes
// the service robust is deliberately mechanism, not policy: the engine's
// bit-identical resume, the sealed CRC-checked snapshot container, and
// the typed wedge error do the heavy lifting; the farm only routes them.
package farm

import (
	caba "github.com/caba-sim/caba"
	"github.com/caba-sim/caba/internal/snapshot"
)

// Cell is one sweep grid cell: everything that determines the simulated
// result. Key hashes only Config.ResultConfig, so workers are free to
// override the fields it zeroes locally.
type Cell struct {
	App    string      `json:"app"`
	Seed   int64       `json:"seed"`
	Config caba.Config `json:"config"`
	Design caba.Design `json:"design"`
}

// Key returns the cell's content address: a hash over the application,
// seed, design and the result-determining configuration. Two cells with
// equal keys produce bit-identical results, so the key doubles as the
// result store's address and the dedupe identity.
func (c Cell) Key() (uint64, error) {
	return snapshot.HashPlain(c.Config.ResultConfig(), c.Design, c.App, c.Seed)
}

// Label renders the human-readable cell identity used in logs, progress
// events and failure reports.
func (c Cell) Label() string { return c.App + "/" + c.Design.Name }

// SweepRequest submits cells to the coordinator (POST /sweep). Cells
// already in the result store complete instantly as cache hits; cells
// already queued or leased are not duplicated. Admission is bounded: a
// submission that would push the live queue past the coordinator's
// MaxQueue — or this client past its per-client quota — is rejected
// with HTTP 429 and a Retry-After hint. Submission is idempotent by
// content address, so retrying the identical request after a 429 is
// always safe: already-accepted cells count as Known, not duplicates.
type SweepRequest struct {
	Cells []Cell `json:"cells"`
	// Client names the submitting client for per-client admission
	// quotas and queue attribution (empty = "anonymous").
	Client string `json:"client,omitempty"`
}

// SweepResponse acknowledges a sweep submission.
type SweepResponse struct {
	// Accepted counts newly queued cells.
	Accepted int `json:"accepted"`
	// CacheHits counts submitted cells served from the result store.
	CacheHits int `json:"cache_hits"`
	// Known counts submitted cells that were already queued, leased or
	// terminally failed from an earlier submission.
	Known int `json:"known"`
}

// LeaseRequest asks for work (POST /lease).
type LeaseRequest struct {
	// Worker names the requester (for logs and attempt history).
	Worker string `json:"worker"`
}

// LeaseResponse grants a cell lease, or explains why there is none.
type LeaseResponse struct {
	// Lease is the assignment token; empty when no work was granted.
	Lease string `json:"lease,omitempty"`
	Cell  *Cell  `json:"cell,omitempty"`
	// Key is the cell's content address in %016x form.
	Key string `json:"key,omitempty"`
	// Attempt is 1 for a cell's first execution, counting up per retry.
	Attempt int `json:"attempt,omitempty"`
	// TTLMs is the lease duration; the worker must heartbeat well within
	// it or the cell is re-queued for someone else.
	TTLMs int64 `json:"ttl_ms,omitempty"`
	// Checkpoint reports that a resume blob exists for this cell (GET
	// /checkpoint with the lease token fetches it).
	Checkpoint bool `json:"checkpoint,omitempty"`
	// RetryMs hints when to poll again after an empty grant.
	RetryMs int64 `json:"retry_ms,omitempty"`
	// Drained reports that cells have been submitted and every one of
	// them is terminal (none pending or leased). A coordinator that has
	// not yet received any work reports false, so a worker fleet started
	// ahead of the first submission keeps polling instead of exiting.
	Drained bool `json:"drained,omitempty"`
}

// HeartbeatRequest extends a lease (POST /heartbeat). A heartbeat for a
// lease the coordinator no longer recognizes (expired and re-queued)
// fails with HTTP 409; the worker must abandon the cell.
type HeartbeatRequest struct {
	Lease string `json:"lease"`
	// Cycle is the cell's current simulated cycle (progress reporting).
	Cycle uint64 `json:"cycle,omitempty"`
}

// ReportRequest delivers a cell's outcome (POST /report). Exactly one of
// Result, Error or Released describes it:
//
//   - Result: the cell completed; the coordinator verifies and stores it.
//   - Error: the cell failed. Wedge marks the failure deterministic
//     (gpu.WedgeError — the cell's fault stream replays the identical
//     wedge on every attempt), which fails the cell immediately; any
//     other error is transient and re-queued with backoff until the
//     attempt cap. Resource marks the failure resource-exhausted (the
//     worker's memory or CPU budget watchdog aborted the cell): still
//     transient-retryable, but preferentially on a different worker,
//     and it feeds the poison-cell circuit breaker.
//   - Released: the worker is draining; the cell is re-queued at once
//     without consuming an attempt.
type ReportRequest struct {
	Lease    string       `json:"lease"`
	Result   *caba.Result `json:"result,omitempty"`
	Error    string       `json:"error,omitempty"`
	Wedge    bool         `json:"wedge,omitempty"`
	Released bool         `json:"released,omitempty"`
	// Resource, when non-empty, classifies the failure as
	// resource-exhausted and names the blown budget ("memory" or
	// "cpu"). See the taxonomy above.
	Resource string `json:"resource,omitempty"`
	// ResumeCycle is the simulated cycle this attempt resumed from (0 =
	// started from scratch); recorded in the cell's attempt history.
	ResumeCycle uint64 `json:"resume_cycle,omitempty"`
}

// Failure describes one terminally failed cell.
type Failure struct {
	Cell Cell `json:"cell"`
	// Key is the cell's content address in %016x form.
	Key      string `json:"key"`
	Error    string `json:"error"`
	Wedge    bool   `json:"wedge"`
	Attempts int    `json:"attempts"`
	// Poison marks a cell quarantined by the poison-cell circuit
	// breaker: it was presumed to have killed PoisonThreshold distinct
	// workers and is never leased again.
	Poison bool `json:"poison,omitempty"`
}

// Attempt is one entry of a cell's execution history.
type Attempt struct {
	Worker string `json:"worker"`
	// Outcome is "ok", "failed", "wedged", "released", "expired" or
	// "resource" (the worker's memory/CPU budget watchdog aborted it).
	Outcome string `json:"outcome"`
	// ResumeCycle is where the attempt resumed from (successful attempts
	// only; 0 = cycle zero).
	ResumeCycle uint64 `json:"resume_cycle,omitempty"`
	Error       string `json:"error,omitempty"`
}

// StatusResponse is the sweep's current state (GET /status). With
// ?wait_ms=N the coordinator long-polls until the sweep is drained or the
// wait elapses, whichever comes first — unless the coordinator is under
// pressure, in which case the long-poll is shed (served as an immediate
// snapshot with the X-Farm-Shed response header set).
type StatusResponse struct {
	Pending   int `json:"pending"`
	Leased    int `json:"leased"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	CacheHits int `json:"cache_hits"`
	// Quarantined counts corrupt result-store entries and checkpoint
	// blobs set aside since the coordinator started.
	Quarantined int `json:"quarantined"`
	// Poisoned counts cells quarantined by the poison-cell circuit
	// breaker (they also appear in Failures with Poison set).
	Poisoned int `json:"poisoned,omitempty"`
	// Drained is true when every submitted cell is terminal.
	Drained bool `json:"drained"`
	// Results maps cell keys (%016x) to completed results.
	Results map[string]*caba.Result `json:"results,omitempty"`
	// Failures lists terminally failed cells.
	Failures []Failure `json:"failures,omitempty"`
	// Attempts maps cell keys to their execution history.
	Attempts map[string][]Attempt `json:"attempts,omitempty"`
}

// HealthResponse is the coordinator's self-assessment (GET /healthz).
// State is one of:
//
//   - "ok": normal operation.
//   - "degraded": still serving, but under pressure — the live queue is
//     at ≥80% of MaxQueue or the store's disk headroom is below
//     MinDiskFree. Long-polls are shed in this state.
//   - "saturated": the live queue is full; submissions are being
//     rejected with 429. Served with HTTP 503.
//   - "draining": the coordinator is quiescing for shutdown — no new
//     leases are granted and submissions get 503 + Retry-After.
type HealthResponse struct {
	State string `json:"state"`
	// QueueLive / QueueCap report admission-control occupancy: live
	// (pending + leased) cells against the MaxQueue bound.
	QueueLive int `json:"queue_live"`
	QueueCap  int `json:"queue_cap"`
	Pending   int `json:"pending"`
	Leased    int `json:"leased"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	// Poisoned counts cells quarantined by the poison-cell breaker.
	Poisoned int `json:"poisoned"`
	// Compactions counts journal compactions since the coordinator
	// opened.
	Compactions uint64 `json:"compactions"`
	// Rejected429 counts submissions rejected by admission control.
	Rejected429 uint64 `json:"rejected_429"`
	// ShedLongPolls counts /status long-polls downgraded to immediate
	// snapshots under pressure.
	ShedLongPolls uint64 `json:"shed_long_polls"`
	// Quarantined counts corrupt store entries set aside since open.
	Quarantined uint64 `json:"quarantined"`
	// DiskFreeBytes is the store filesystem's free space (-1 when the
	// platform cannot report it).
	DiskFreeBytes int64 `json:"disk_free_bytes"`
}

// ProgressEvent is one line of the live progress stream (GET /progress,
// JSONL). Event types: "queued", "cachehit", "lease", "heartbeat",
// "checkpoint", "done", "requeue", "failed", "poisoned", "compact",
// "sample".
type ProgressEvent struct {
	Type    string `json:"type"`
	Cell    string `json:"cell,omitempty"`
	Key     string `json:"key,omitempty"`
	Worker  string `json:"worker,omitempty"`
	Cycle   uint64 `json:"cycle,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Error   string `json:"error,omitempty"`
	// Sample carries one metrics time-series row for "sample" events
	// (emitted from completed cells whose config enabled sampling).
	Sample *caba.MetricsSample `json:"sample,omitempty"`
}
