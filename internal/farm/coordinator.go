package farm

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	caba "github.com/caba-sim/caba"
)

// CoordinatorConfig tunes the coordinator's robustness policy. The zero
// value of every field selects a sensible default.
type CoordinatorConfig struct {
	// Dir roots the durable state: the content-addressed result store,
	// the checkpoint blob store and the submission journal. A
	// coordinator restarted over the same Dir resumes the sweep —
	// journaled cells with a stored result are complete, the rest are
	// re-queued. Required.
	Dir string
	// LeaseTTL is how long a worker may go without heartbeating before
	// its cell is re-queued (default 15s).
	LeaseTTL time.Duration
	// MaxAttempts caps executions per cell: a cell whose transient
	// failures (including lease expiries) reach the cap fails
	// permanently (default 4). Deterministic wedges ignore the cap —
	// they fail on the first attempt and are never retried.
	MaxAttempts int
	// RetryBackoff is the re-queue delay after the first transient
	// failure, doubling per failure with ±50% jitter so a thundering
	// herd of failed cells does not re-land in lockstep (default 250ms).
	RetryBackoff time.Duration
	// MaxBackoff caps the exponential backoff (default 30s).
	MaxBackoff time.Duration
	// MaxQueue bounds the live queue (pending + leased cells). A
	// submission that would exceed it is rejected with HTTP 429 and a
	// Retry-After hint; retrying the identical request is safe because
	// admission is idempotent by content address (default 4096).
	MaxQueue int
	// ClientQuota bounds one client's share of the live queue, so a
	// single runaway submitter cannot starve everyone else (default:
	// MaxQueue, i.e. no separate per-client bound).
	ClientQuota int
	// PoisonThreshold is the poison-cell circuit breaker: a cell
	// presumed to have killed this many distinct workers (lease expiry
	// or resource-budget abort) is quarantined with a durable sealed
	// record and never leased again (default 3).
	PoisonThreshold int
	// CompactMinLines triggers journal compaction once this many dead
	// lines (events beyond one per known cell) have accumulated, keeping
	// restart replay O(cells) instead of O(history) (default 256).
	CompactMinLines int
	// MaxLongPolls bounds concurrent /status long-polls; excess polls
	// are shed — served as immediate snapshots — so status watchers can
	// never pin the coordinator under overload (default 64).
	MaxLongPolls int
	// MinDiskFree, when positive, is the store's disk-headroom floor in
	// bytes: checkpoint uploads below it are refused with HTTP 507 and
	// /healthz degrades. Losing checkpoint granularity is recoverable; a
	// full store volume is not.
	MinDiskFree int64
	// Now overrides the clock for lease and backoff decisions (tests
	// exercising TTL boundaries and clock skew). Nil means time.Now.
	Now func() time.Time
	// Logf receives coordinator log lines (nil = silent).
	Logf func(format string, args ...any)
}

func (c *CoordinatorConfig) ttl() time.Duration {
	if c.LeaseTTL <= 0 {
		return 15 * time.Second
	}
	return c.LeaseTTL
}

func (c *CoordinatorConfig) maxAttempts() int {
	if c.MaxAttempts <= 0 {
		return 4
	}
	return c.MaxAttempts
}

func (c *CoordinatorConfig) backoff() time.Duration {
	if c.RetryBackoff <= 0 {
		return 250 * time.Millisecond
	}
	return c.RetryBackoff
}

func (c *CoordinatorConfig) maxBackoff() time.Duration {
	if c.MaxBackoff <= 0 {
		return 30 * time.Second
	}
	return c.MaxBackoff
}

func (c *CoordinatorConfig) maxQueue() int {
	if c.MaxQueue <= 0 {
		return 4096
	}
	return c.MaxQueue
}

func (c *CoordinatorConfig) clientQuota() int {
	if c.ClientQuota <= 0 {
		return c.maxQueue()
	}
	return c.ClientQuota
}

func (c *CoordinatorConfig) poisonThreshold() int {
	if c.PoisonThreshold <= 0 {
		return 3
	}
	return c.PoisonThreshold
}

func (c *CoordinatorConfig) compactMinLines() int {
	if c.CompactMinLines <= 0 {
		return 256
	}
	return c.CompactMinLines
}

func (c *CoordinatorConfig) maxLongPolls() int {
	if c.MaxLongPolls <= 0 {
		return 64
	}
	return c.MaxLongPolls
}

// cellStatus is a queued cell's lifecycle state.
type cellStatus uint8

const (
	cellPending cellStatus = iota // waiting for a lease (possibly backed off)
	cellLeased                    // held by a worker
	cellDone                      // verified result stored
	cellFailed                    // terminal failure (wedge, poison or attempt cap)
)

// cellState is the coordinator's view of one queued cell.
type cellState struct {
	cell      Cell
	key       uint64
	status    cellStatus
	failures  int       // transient failures charged (incl. lease expiries)
	notBefore time.Time // backoff gate while pending
	errMsg    string
	wedge     bool
	poison    bool // quarantined by the poison-cell circuit breaker
	cacheHit  bool
	client    string   // submitting client (admission attribution)
	victims   []string // distinct workers presumed killed by this cell
	result    *caba.Result
	history   []Attempt
	order     int // submission order, for stable dispatch
}

// addVictim records worker in the cell's distinct-victim set, reporting
// whether it was new.
func (st *cellState) addVictim(worker string) bool {
	for _, v := range st.victims {
		if v == worker {
			return false
		}
	}
	st.victims = append(st.victims, worker)
	return true
}

// hasVictim reports whether worker is already in the victim set (the
// lease dispatcher prefers not to feed a cell back to a worker it is
// presumed to have killed).
func (st *cellState) hasVictim(worker string) bool {
	for _, v := range st.victims {
		if v == worker {
			return true
		}
	}
	return false
}

// Coordinator is the sweep service: durable queue, lease manager, failure
// classifier, result cache, admission controller and progress
// broadcaster, exposed over HTTP via Handler.
type Coordinator struct {
	cfg     CoordinatorConfig
	store   *Store
	leases  *leaseTable
	mux     *http.ServeMux
	handler http.Handler

	// mu guards the queue state below. It is held across fsyncs (storing
	// a result, journaling a victim, compacting), so nothing a lease
	// renewal needs sits behind it: the lease table has its own lock, the
	// health inputs are atomics and subscribers have subsMu.
	mu           sync.Mutex
	cells        map[uint64]*cellState
	order        []uint64
	journal      *os.File
	journalLines int            // lines in the journal file (compaction trigger)
	clientLive   map[string]int // live (pending+leased) cells per client
	pendingN     int
	leasedN      int
	doneN        int
	failedN      int
	poisonedN    int
	closed       bool // Close called: the journal is closed

	draining atomic.Bool  // Quiesce called: no new leases or admissions
	liveN    atomic.Int64 // pendingN + leasedN, for healthState

	subsMu sync.Mutex
	subs   map[chan ProgressEvent]struct{}

	compactions atomic.Uint64
	rejected429 atomic.Uint64
	shedPolls   atomic.Uint64
	longPolls   atomic.Int64 // currently parked /status long-polls

	janitorStop chan struct{}
	janitorDone chan struct{}
	closeOnce   sync.Once
}

// NewCoordinator opens (or resumes) a coordinator over cfg.Dir: the
// submission journal is replayed (torn tail truncated, interrupted
// compaction rolled back), journaled cells whose sealed outcome is
// already in the store are terminal, replayed victim counts at the
// poison threshold quarantine immediately, and the rest are re-queued.
// Call Close when done.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("farm: coordinator needs a state directory")
	}
	store, err := OpenStore(cfg.Dir)
	if err != nil {
		return nil, err
	}
	store.minFree = cfg.MinDiskFree
	c := &Coordinator{
		cfg:         cfg,
		store:       store,
		leases:      newLeaseTable(),
		cells:       make(map[uint64]*cellState),
		subs:        make(map[chan ProgressEvent]struct{}),
		clientLive:  make(map[string]int),
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	if err := c.openJournal(); err != nil {
		return nil, err
	}
	// A coordinator that died between journaling a cell's Nth victim and
	// sealing the poison record re-trips the breaker here.
	c.mu.Lock()
	for _, key := range c.order {
		st := c.cells[key]
		if st.status == cellPending && len(st.victims) >= c.cfg.poisonThreshold() {
			c.poisonLocked(st, "victim count at threshold on replay")
		}
	}
	c.mu.Unlock()
	c.mux = http.NewServeMux()
	c.mux.HandleFunc("POST /sweep", c.handleSweep)
	c.mux.HandleFunc("POST /lease", c.handleLease)
	c.mux.HandleFunc("POST /heartbeat", c.handleHeartbeat)
	c.mux.HandleFunc("POST /checkpoint", c.handlePutCheckpoint)
	c.mux.HandleFunc("GET /checkpoint", c.handleGetCheckpoint)
	c.mux.HandleFunc("POST /report", c.handleReport)
	c.mux.HandleFunc("GET /status", c.handleStatus)
	c.mux.HandleFunc("GET /healthz", c.handleHealth)
	c.mux.HandleFunc("GET /progress", c.handleProgress)
	// Every response advertises the current health state so clients can
	// surface degradation without polling /healthz.
	c.handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Farm-Health", c.healthState())
		c.mux.ServeHTTP(w, r)
	})
	c.maybeCompact()
	go c.janitor()
	return c, nil
}

// now returns the configured clock's time (real time by default).
func (c *Coordinator) now() time.Time {
	if c.cfg.Now != nil {
		return c.cfg.Now()
	}
	return time.Now()
}

// Close stops the lease janitor and fsyncs and closes the journal; a
// request still in flight records no lease expiry after it. In-memory
// state is discarded; the durable state in Dir survives for the next
// open.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		close(c.janitorStop)
		<-c.janitorDone
		c.mu.Lock()
		defer c.mu.Unlock()
		c.closed = true
		c.journal.Sync()
		c.journal.Close()
	})
}

// Quiesce puts the coordinator into draining mode ahead of shutdown: no
// new leases are granted, submissions are refused with 503 +
// Retry-After, /healthz reports "draining", and the journal is flushed.
// In-flight leases may still heartbeat and report — a computed result in
// hand is always worth storing.
func (c *Coordinator) Quiesce() {
	c.draining.Store(true)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.journal.Sync()
}

// Handler returns the coordinator's HTTP surface.
func (c *Coordinator) Handler() http.Handler { return c.handler }

// Store exposes the underlying content-addressed store (observability
// and tests).
func (c *Coordinator) Store() *Store { return c.store }

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// addCellLocked registers a new cell and updates the aggregate counters;
// caller holds c.mu (or is the single-threaded open path).
func (c *Coordinator) addCellLocked(st *cellState) {
	st.order = len(c.order)
	c.cells[st.key] = st
	c.order = append(c.order, st.key)
	switch st.status {
	case cellPending, cellLeased:
		if st.status == cellPending {
			c.pendingN++
		} else {
			c.leasedN++
		}
		c.clientLive[st.client]++
	case cellDone:
		c.doneN++
	case cellFailed:
		c.failedN++
		if st.poison {
			c.poisonedN++
		}
	}
	c.liveN.Store(int64(c.pendingN + c.leasedN))
}

// transitionLocked moves a cell between lifecycle states, keeping the
// aggregate and per-client counters exact; caller holds c.mu. A cell
// transitioning to cellFailed with st.poison already set counts as
// poisoned.
func (c *Coordinator) transitionLocked(st *cellState, to cellStatus) {
	if st.status == to {
		return
	}
	switch st.status {
	case cellPending:
		c.pendingN--
	case cellLeased:
		c.leasedN--
	case cellDone:
		c.doneN--
	case cellFailed:
		c.failedN--
		if st.poison {
			c.poisonedN--
		}
	}
	wasLive := st.status == cellPending || st.status == cellLeased
	st.status = to
	switch to {
	case cellPending:
		c.pendingN++
	case cellLeased:
		c.leasedN++
	case cellDone:
		c.doneN++
	case cellFailed:
		c.failedN++
		if st.poison {
			c.poisonedN++
		}
	}
	isLive := to == cellPending || to == cellLeased
	if wasLive && !isLive {
		if c.clientLive[st.client]--; c.clientLive[st.client] <= 0 {
			delete(c.clientLive, st.client)
		}
	}
	if !wasLive && isLive {
		c.clientLive[st.client]++
	}
	c.liveN.Store(int64(c.pendingN + c.leasedN))
}

// janitor periodically harvests expired leases (so dead workers surface
// as re-queued cells even when no request traffic arrives) and compacts
// the journal when enough dead lines accumulate.
func (c *Coordinator) janitor() {
	defer close(c.janitorDone)
	tick := c.cfg.ttl() / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-c.janitorStop:
			return
		case <-t.C:
			c.harvestExpired(c.now())
			c.maybeCompact()
		}
	}
}

// harvestExpired re-queues every cell whose lease deadline has passed,
// charging the expiry as a transient failure and recording the worker as
// a presumed victim of the cell: a worker that died or hung mid-cell is
// indistinguishable from one the cell killed, and enough distinct
// victims trip the poison breaker. A closed coordinator, whose journal
// could no longer record the victim, re-queues nothing: a request still
// in flight when Close ran must not mutate sweep state.
func (c *Coordinator) harvestExpired(now time.Time) {
	for _, l := range c.leases.harvest(now) {
		c.mu.Lock()
		st := c.cells[l.Key]
		if st != nil && st.status == cellLeased && !c.closed {
			st.history = append(st.history, Attempt{Worker: l.Worker, Outcome: "expired"})
			msg := fmt.Sprintf("lease expired (worker %s died or hung)", l.Worker)
			if !c.recordVictimLocked(st, l.Worker, msg) {
				c.chargeTransient(st, now, msg)
			}
		}
		c.mu.Unlock()
		c.logf("farm: lease %s expired (worker %s, cell %s)", l.Token, l.Worker, l.Cell.Label())
	}
}

// recordVictimLocked journals worker as a presumed victim of st's cell
// and trips the poison-cell breaker once PoisonThreshold distinct
// workers have fallen to it. It reports whether the cell was quarantined
// (in which case the caller must not also charge a transient failure);
// callers hold c.mu.
func (c *Coordinator) recordVictimLocked(st *cellState, worker, reason string) bool {
	if !st.addVictim(worker) {
		return false
	}
	// Durable before decisive: the victim line makes the breaker's
	// memory survive coordinator restarts.
	if err := c.appendJournalLocked(journalLine{Key: KeyString(st.key), Victim: worker}); err != nil {
		c.logf("farm: journaling victim for %s: %v", st.cell.Label(), err)
	} else {
		c.journal.Sync()
	}
	if len(st.victims) < c.cfg.poisonThreshold() {
		return false
	}
	c.poisonLocked(st, reason)
	return true
}

// poisonLocked quarantines a cell under the poison-cell circuit
// breaker: terminal, sealed into the store as a .poison record, never
// leased again. Distinct from a wedge — a wedge is the cell's own
// deterministic failure; poison is the cell's presumed effect on the
// workers that ran it. Caller holds c.mu.
func (c *Coordinator) poisonLocked(st *cellState, reason string) {
	st.failures++
	st.poison = true
	st.wedge = false
	st.errMsg = fmt.Sprintf("poisoned: presumed to have killed %d distinct workers (%s): %s",
		len(st.victims), strings.Join(st.victims, ", "), reason)
	c.transitionLocked(st, cellFailed)
	if err := c.store.PutPoison(st.key, st.errMsg, st.victims, st.failures); err != nil {
		c.logf("farm: recording poison for %s: %v", st.cell.Label(), err)
	}
	c.store.DeleteBlob(st.key)
	c.publish(ProgressEvent{Type: "poisoned", Cell: st.cell.Label(), Key: KeyString(st.key), Error: st.errMsg, Attempt: st.failures})
	c.logf("farm: cell %s poisoned: %s", st.cell.Label(), st.errMsg)
}

// chargeTransient applies the transient-failure policy to a cell (caller
// holds c.mu): one more failure, then either terminal at the attempt cap
// or re-queued with exponential backoff and jitter.
func (c *Coordinator) chargeTransient(st *cellState, now time.Time, msg string) {
	st.failures++
	if st.failures >= c.cfg.maxAttempts() {
		st.errMsg = fmt.Sprintf("%s (attempt cap %d reached)", msg, c.cfg.maxAttempts())
		c.transitionLocked(st, cellFailed)
		if err := c.store.PutFailure(st.key, st.errMsg, false, st.failures); err != nil {
			c.logf("farm: recording failure for %s: %v", st.cell.Label(), err)
		}
		c.publish(ProgressEvent{Type: "failed", Cell: st.cell.Label(), Key: KeyString(st.key), Error: st.errMsg, Attempt: st.failures})
		return
	}
	c.transitionLocked(st, cellPending)
	st.notBefore = now.Add(c.backoffFor(st.failures))
	c.publish(ProgressEvent{Type: "requeue", Cell: st.cell.Label(), Key: KeyString(st.key), Error: msg, Attempt: st.failures})
}

// backoffFor computes the re-queue delay after n transient failures:
// RetryBackoff doubling per failure, capped at MaxBackoff, with ±50%
// jitter.
func (c *Coordinator) backoffFor(n int) time.Duration {
	d := c.cfg.backoff()
	for i := 1; i < n && d < c.cfg.maxBackoff(); i++ {
		d *= 2
	}
	if d > c.cfg.maxBackoff() {
		d = c.cfg.maxBackoff()
	}
	// Jitter in [d/2, 3d/2): rand here affects scheduling only, never
	// simulated results.
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// --- Health and admission ---

// healthState classifies the coordinator's condition for /healthz and
// the X-Farm-Health response header: "draining" during Quiesce,
// "saturated" at a full live queue, "degraded" at ≥80% occupancy or low
// store disk, else "ok". It reads atomics only, never c.mu: every
// request computes it first, lease renewals included.
func (c *Coordinator) healthState() string {
	live := int(c.liveN.Load())
	mq := c.cfg.maxQueue()
	switch {
	case c.draining.Load():
		return "draining"
	case live >= mq:
		return "saturated"
	case live*5 >= mq*4:
		return "degraded"
	case c.cfg.MinDiskFree > 0:
		if free := diskFree(c.cfg.Dir); free >= 0 && free < c.cfg.MinDiskFree {
			return "degraded"
		}
	}
	return "ok"
}

// retryAfterSecs is the Retry-After hint on 429/503 responses: a quarter
// TTL is long enough for the janitor to have harvested something.
func (c *Coordinator) retryAfterSecs() int {
	s := int((c.cfg.ttl() / 4).Seconds())
	if s < 1 {
		s = 1
	}
	return s
}

// handleHealth serves the coordinator's self-assessment. Saturated and
// draining states are carried on HTTP 503 so dumb load-balancer probes
// read them without parsing the body.
func (c *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request) {
	state := c.healthState()
	c.mu.Lock()
	resp := HealthResponse{
		State:         state,
		QueueLive:     c.pendingN + c.leasedN,
		QueueCap:      c.cfg.maxQueue(),
		Pending:       c.pendingN,
		Leased:        c.leasedN,
		Done:          c.doneN,
		Failed:        c.failedN,
		Poisoned:      c.poisonedN,
		Compactions:   c.compactions.Load(),
		Rejected429:   c.rejected429.Load(),
		ShedLongPolls: c.shedPolls.Load(),
		Quarantined:   c.store.Quarantined(),
		DiskFreeBytes: diskFree(c.cfg.Dir),
	}
	c.mu.Unlock()
	code := http.StatusOK
	if state == "saturated" || state == "draining" {
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(&resp)
}

// --- Progress broadcasting ---

// subscribe registers a progress listener. Events are dropped, never
// blocked on, when a listener falls behind.
func (c *Coordinator) subscribe() (ch chan ProgressEvent, cancel func()) {
	ch = make(chan ProgressEvent, 256)
	c.subsMu.Lock()
	c.subs[ch] = struct{}{}
	c.subsMu.Unlock()
	return ch, func() {
		c.subsMu.Lock()
		delete(c.subs, ch)
		c.subsMu.Unlock()
	}
}

// publish fans an event out to subscribers. It may be called with or
// without c.mu held.
func (c *Coordinator) publish(ev ProgressEvent) {
	c.subsMu.Lock()
	defer c.subsMu.Unlock()
	for ch := range c.subs {
		select {
		case ch <- ev:
		default: // slow subscriber: drop rather than stall the sweep
		}
	}
}

// --- HTTP handlers ---

// maxBodyBytes bounds JSON request bodies; checkpoint blobs get the
// larger maxBlobBytes (a full simulator snapshot is megabytes).
const (
	maxBodyBytes = 64 << 20
	maxBlobBytes = 512 << 20
)

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		httpError(w, http.StatusBadRequest, "malformed request: %v", err)
		return false
	}
	return true
}

// handleSweep accepts cells under admission control: new ones are
// journaled and queued while the live queue and the client's quota have
// room, ones with a stored sealed outcome complete instantly as cache
// hits, known ones are acknowledged without duplication. A submission
// that hits either bound stops there with 429 + Retry-After; everything
// accepted before the bound stays accepted (durably), and retrying the
// identical request is safe — accepted cells come back as Known.
func (c *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	client := req.Client
	if client == "" {
		client = "anonymous"
	}
	var resp SweepResponse
	for _, cell := range req.Cells {
		if err := cell.Config.Validate(); err != nil {
			httpError(w, http.StatusBadRequest, "cell %s: %v", cell.Label(), err)
			return
		}
		key, err := cell.Key()
		if err != nil {
			httpError(w, http.StatusBadRequest, "cell %s: %v", cell.Label(), err)
			return
		}
		c.mu.Lock()
		if c.draining.Load() {
			c.mu.Unlock()
			c.journal.Sync()
			w.Header().Set("Retry-After", strconv.Itoa(c.retryAfterSecs()))
			httpError(w, http.StatusServiceUnavailable, "coordinator is draining for shutdown; resubmit after restart (accepted cells are journaled)")
			return
		}
		if st, ok := c.cells[key]; ok {
			// A cell replayed from the durable store (result or terminal
			// failure) was served without re-simulation: a cache hit. A
			// cell merely queued/leased/completed this session is Known.
			if st.cacheHit {
				resp.CacheHits++
			} else {
				resp.Known++
			}
			c.mu.Unlock()
			continue
		}
		st := &cellState{cell: cell, key: key, client: client}
		// Content-addressed dedupe: a cell already simulated — by any
		// earlier sweep over this store — is a cache hit, not a re-run.
		// Durable terminal outcomes count too: a deterministic wedge
		// replays identically and a poisoned cell must never lease, so
		// the recorded outcome is the answer.
		hit := false
		if msg, victims, attempts, ok := c.store.GetPoison(key); ok {
			st.poison = true
			st.errMsg = msg
			st.victims = victims
			st.failures = attempts
			st.status = cellFailed
			hit = true
		} else if res, _ := c.store.GetResult(key); res != nil {
			st.status = cellDone
			st.result = res
			hit = true
		} else if msg, wedge, attempts, ok := c.store.GetFailure(key); ok {
			st.status = cellFailed
			st.errMsg = msg
			st.wedge = wedge
			st.failures = attempts
			hit = true
		}
		if hit {
			st.cacheHit = true
			resp.CacheHits++
			c.addCellLocked(st)
			c.publish(ProgressEvent{Type: "cachehit", Cell: cell.Label(), Key: KeyString(key)})
			c.mu.Unlock()
			continue
		}
		// Admission control: the live queue and the client's share of it
		// are both bounded. Rejection is safe to retry verbatim — the
		// cells accepted above are already journaled and will dedupe.
		if live := c.pendingN + c.leasedN; live >= c.cfg.maxQueue() {
			c.rejected429.Add(1)
			c.mu.Unlock()
			c.journal.Sync()
			w.Header().Set("Retry-After", strconv.Itoa(c.retryAfterSecs()))
			httpError(w, http.StatusTooManyRequests,
				"live queue full (%d cells, cap %d); retry the submission later — already-accepted cells deduplicate", live, c.cfg.maxQueue())
			return
		}
		if used := c.clientLive[client]; used >= c.cfg.clientQuota() {
			c.rejected429.Add(1)
			c.mu.Unlock()
			c.journal.Sync()
			w.Header().Set("Retry-After", strconv.Itoa(c.retryAfterSecs()))
			httpError(w, http.StatusTooManyRequests,
				"client %q is at its live-cell quota (%d of %d); retry as cells complete", client, used, c.cfg.clientQuota())
			return
		}
		if err := c.appendJournalLocked(journalLine{Key: KeyString(key), Cell: &cell, Client: client}); err != nil {
			c.mu.Unlock()
			httpError(w, http.StatusInternalServerError, "journal append: %v", err)
			return
		}
		c.addCellLocked(st)
		resp.Accepted++
		c.publish(ProgressEvent{Type: "queued", Cell: cell.Label(), Key: KeyString(key)})
		c.mu.Unlock()
	}
	// One fsync per submission, not per cell: the queue is durable at
	// request granularity.
	if err := c.journal.Sync(); err != nil {
		httpError(w, http.StatusInternalServerError, "journal sync: %v", err)
		return
	}
	writeJSON(w, &resp)
}

// handleLease grants the oldest ready pending cell, or tells the worker
// when to come back. Cells that already count the requesting worker
// among their presumed victims are passed over in favor of any other
// ready cell — but still granted when they are the only work available,
// so a small fleet cannot livelock against its own victim lists. A
// draining coordinator grants nothing.
func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	now := c.now()
	c.harvestExpired(now)
	c.mu.Lock()
	if c.draining.Load() {
		c.mu.Unlock()
		writeJSON(w, &LeaseResponse{RetryMs: max64(10, (c.cfg.ttl() / 2).Milliseconds())})
		return
	}
	var pick, victimFallback *cellState
	var soonest time.Time
	for _, key := range c.order {
		st := c.cells[key]
		if st.status != cellPending {
			continue
		}
		if now.Before(st.notBefore) {
			if soonest.IsZero() || st.notBefore.Before(soonest) {
				soonest = st.notBefore
			}
			continue
		}
		if st.hasVictim(req.Worker) {
			if victimFallback == nil {
				victimFallback = st
			}
			continue
		}
		pick = st
		break
	}
	if pick == nil {
		pick = victimFallback
	}
	if pick == nil {
		// A coordinator that has never been given work is idle, not
		// drained: a worker fleet started ahead of the first submission
		// must keep polling, not exit.
		resp := LeaseResponse{Drained: c.pendingN == 0 && c.leasedN == 0 && len(c.cells) > 0}
		switch {
		case !soonest.IsZero():
			resp.RetryMs = max64(10, soonest.Sub(now).Milliseconds())
		case c.leasedN > 0:
			resp.RetryMs = max64(10, (c.cfg.ttl() / 4).Milliseconds())
		}
		c.mu.Unlock()
		writeJSON(w, &resp)
		return
	}
	c.transitionLocked(pick, cellLeased)
	attempt := pick.failures + 1
	cell := pick.cell
	key := pick.key
	c.mu.Unlock()
	// The TTL runs from the response, not from the request: waiting for
	// c.mu and for the store (both held across other requests' fsyncs)
	// must not eat into the worker's first heartbeat interval.
	ckpt := c.store.HasBlob(key)
	l := c.leases.grant(cell, key, req.Worker, attempt, c.cfg.ttl(), c.now())
	c.publish(ProgressEvent{Type: "lease", Cell: cell.Label(), Key: KeyString(key), Worker: req.Worker, Attempt: attempt})
	writeJSON(w, &LeaseResponse{
		Lease:      l.Token,
		Cell:       &cell,
		Key:        KeyString(key),
		Attempt:    attempt,
		TTLMs:      c.cfg.ttl().Milliseconds(),
		Checkpoint: ckpt,
	})
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// handleHeartbeat extends a live lease; a stale token gets 409 so the
// worker abandons the zombie cell. The TTL boundary is exact: a
// heartbeat arriving at precisely the deadline still extends (a lease
// expires strictly after it), one arriving any later is refused, and
// every expired lease, this one included, is harvested before the 409.
// Renewing a live lease never waits for c.mu, which is held across
// fsyncs; the janitor harvests the other expired leases.
func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	now := c.now()
	l, ok := c.leases.extend(req.Lease, c.cfg.ttl(), now)
	if !ok {
		c.harvestExpired(now)
		httpError(w, http.StatusConflict, "lease %s is not live (expired and re-queued?)", req.Lease)
		return
	}
	c.publish(ProgressEvent{Type: "heartbeat", Cell: l.Cell.Label(), Key: KeyString(l.Key), Worker: l.Worker, Cycle: req.Cycle})
	w.WriteHeader(http.StatusNoContent)
}

// handlePutCheckpoint stores a mid-run checkpoint blob for a leased cell.
// Uploading also extends the lease (a checkpoint is the strongest
// possible heartbeat). An upload refused by the store's disk-headroom
// preflight gets 507: the worker keeps running and simply loses this
// checkpoint's granularity.
func (c *Coordinator) handlePutCheckpoint(w http.ResponseWriter, r *http.Request) {
	token := r.URL.Query().Get("lease")
	l, ok := c.leases.extend(token, c.cfg.ttl(), c.now())
	if !ok {
		httpError(w, http.StatusConflict, "lease %s is not live", token)
		return
	}
	blob, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBlobBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading blob: %v", err)
		return
	}
	if err := c.store.PutBlob(l.Key, blob); err != nil {
		if errors.Is(err, errInsufficientStorage) {
			httpError(w, http.StatusInsufficientStorage, "%v", err)
			return
		}
		// A corrupt upload (torn transfer, bit rot in flight) is
		// rejected outright; the previous good blob, if any, survives.
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	cycle, _ := caba.CheckpointCycle(blob)
	c.publish(ProgressEvent{Type: "checkpoint", Cell: l.Cell.Label(), Key: KeyString(l.Key), Worker: l.Worker, Cycle: cycle})
	w.WriteHeader(http.StatusNoContent)
}

// handleGetCheckpoint serves the leased cell's stored resume blob.
func (c *Coordinator) handleGetCheckpoint(w http.ResponseWriter, r *http.Request) {
	token := r.URL.Query().Get("lease")
	l, ok := c.leases.lookup(token)
	if !ok {
		httpError(w, http.StatusConflict, "lease %s is not live", token)
		return
	}
	blob, err := c.store.GetBlob(l.Key)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if blob == nil {
		httpError(w, http.StatusNotFound, "no checkpoint blob for cell %s", l.Cell.Label())
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(blob)
}

// handleReport settles a lease with its cell's outcome, applying the
// failure taxonomy: verified results are stored, wedges fail fast,
// resource-exhausted failures charge a transient attempt and feed the
// poison breaker, other transient errors re-queue with backoff under the
// attempt cap, and a drain release re-queues immediately without charge.
func (c *Coordinator) handleReport(w http.ResponseWriter, r *http.Request) {
	var req ReportRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	l, ok := c.leases.settle(req.Lease)
	if !ok {
		// The lease expired and the cell moved on; the late report must
		// not mutate state (the worker that holds no lease holds no
		// authority). 409 tells it to drop the result. A double release
		// of the same token lands here too: the first settle consumed it.
		httpError(w, http.StatusConflict, "lease %s is not live (report discarded)", req.Lease)
		return
	}
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.cells[l.Key]
	if st == nil || st.status != cellLeased {
		httpError(w, http.StatusConflict, "cell %s is not leased", l.Cell.Label())
		return
	}
	switch {
	case req.Released:
		c.transitionLocked(st, cellPending)
		st.notBefore = now // no backoff: the worker drained, the cell is healthy
		st.history = append(st.history, Attempt{Worker: l.Worker, Outcome: "released"})
		c.publish(ProgressEvent{Type: "requeue", Cell: st.cell.Label(), Key: KeyString(st.key), Worker: l.Worker, Attempt: l.Attempt})
	case req.Result != nil:
		if err := c.store.PutResult(st.key, req.Result); err != nil {
			// Failing to persist is the coordinator's problem, not the
			// cell's: put it back and let a retry land it.
			c.transitionLocked(st, cellPending)
			st.notBefore = now
			httpError(w, http.StatusInternalServerError, "storing result: %v", err)
			return
		}
		c.transitionLocked(st, cellDone)
		st.result = req.Result
		st.history = append(st.history, Attempt{Worker: l.Worker, Outcome: "ok", ResumeCycle: req.ResumeCycle})
		c.store.DeleteBlob(st.key)
		c.publish(ProgressEvent{Type: "done", Cell: st.cell.Label(), Key: KeyString(st.key), Worker: l.Worker, Cycle: req.Result.Cycles, Attempt: l.Attempt})
		c.streamSeriesLocked(st, req.Result)
	case req.Wedge:
		// A wedge is a deterministic outcome of the cell's fault
		// stream: every retry replays the identical wedge, so the cell
		// fails permanently with its retry budget unspent.
		st.errMsg = req.Error
		st.wedge = true
		st.failures++
		c.transitionLocked(st, cellFailed)
		st.history = append(st.history, Attempt{Worker: l.Worker, Outcome: "wedged", Error: req.Error})
		if err := c.store.PutFailure(st.key, req.Error, true, st.failures); err != nil {
			c.logf("farm: recording wedge for %s: %v", st.cell.Label(), err)
		}
		c.store.DeleteBlob(st.key)
		c.publish(ProgressEvent{Type: "failed", Cell: st.cell.Label(), Key: KeyString(st.key), Worker: l.Worker, Error: req.Error, Attempt: l.Attempt})
	case req.Resource != "":
		// The worker's own budget watchdog killed the cell. The worker
		// survived to tell us, but the cell is still a presumed killer:
		// it exhausted one worker's budget and will likely exhaust the
		// next identical one's too, unless placement differs — hence
		// victim tracking plus transient retry preferring other workers.
		msg := fmt.Sprintf("resource exhausted (%s): %s", req.Resource, req.Error)
		st.history = append(st.history, Attempt{Worker: l.Worker, Outcome: "resource", Error: msg})
		if !c.recordVictimLocked(st, l.Worker, msg) {
			c.chargeTransient(st, now, msg)
		}
	default:
		st.history = append(st.history, Attempt{Worker: l.Worker, Outcome: "failed", Error: req.Error})
		c.chargeTransient(st, now, req.Error)
	}
	w.WriteHeader(http.StatusNoContent)
}

// streamSeriesLocked publishes a completed cell's metrics time-series as
// "sample" progress events (only when the cell's config enabled
// sampling); caller holds c.mu.
func (c *Coordinator) streamSeriesLocked(st *cellState, res *caba.Result) {
	c.subsMu.Lock()
	listening := len(c.subs) > 0
	c.subsMu.Unlock()
	if res.Series == nil || !listening {
		return
	}
	for i := 0; i < res.Series.Len(); i++ {
		s := res.Series.At(i)
		c.publish(ProgressEvent{Type: "sample", Cell: st.cell.Label(), Key: KeyString(st.key), Sample: &s})
	}
}

// handleStatus reports the sweep's state; ?wait_ms=N long-polls until
// drained or the wait elapses. ?results=0 omits the (possibly large)
// result payloads. Long-polls are shed — served as one immediate
// snapshot with X-Farm-Shed set — when too many are already parked or
// the coordinator is not healthy, so status watchers can never pin a
// coordinator that is struggling.
func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	var waitMs int64
	fmt.Sscanf(r.URL.Query().Get("wait_ms"), "%d", &waitMs)
	includeResults := r.URL.Query().Get("results") != "0"
	if waitMs > 0 {
		if n := c.longPolls.Add(1); int(n) > c.cfg.maxLongPolls() || c.healthState() != "ok" {
			c.longPolls.Add(-1)
			c.shedPolls.Add(1)
			w.Header().Set("X-Farm-Shed", "1")
			waitMs = 0
		} else {
			defer c.longPolls.Add(-1)
		}
	}
	deadline := time.Now().Add(time.Duration(waitMs) * time.Millisecond)
	for {
		resp, drained := c.statusSnapshot(includeResults)
		if drained || waitMs <= 0 || time.Now().After(deadline) || r.Context().Err() != nil {
			writeJSON(w, resp)
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-time.After(25 * time.Millisecond):
		}
		c.harvestExpired(c.now())
	}
}

// statusSnapshot assembles a StatusResponse under the lock.
func (c *Coordinator) statusSnapshot(includeResults bool) (*StatusResponse, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp := &StatusResponse{
		Pending:     c.pendingN,
		Leased:      c.leasedN,
		Done:        c.doneN,
		Failed:      c.failedN,
		Poisoned:    c.poisonedN,
		Quarantined: int(c.store.Quarantined()),
		Attempts:    make(map[string][]Attempt),
	}
	if includeResults {
		resp.Results = make(map[string]*caba.Result)
	}
	for _, key := range c.order {
		st := c.cells[key]
		ks := KeyString(key)
		switch st.status {
		case cellDone:
			if st.cacheHit {
				resp.CacheHits++
			}
			if includeResults {
				resp.Results[ks] = st.result
			}
		case cellFailed:
			if st.cacheHit {
				resp.CacheHits++
			}
			resp.Failures = append(resp.Failures, Failure{
				Cell: st.cell, Key: ks, Error: st.errMsg, Wedge: st.wedge,
				Poison: st.poison, Attempts: st.failures,
			})
		}
		if len(st.history) > 0 {
			resp.Attempts[ks] = append([]Attempt(nil), st.history...)
		}
	}
	resp.Drained = resp.Pending == 0 && resp.Leased == 0
	return resp, resp.Drained
}

// handleProgress streams live progress events as JSON Lines until the
// client disconnects. Slow clients lose events rather than stalling the
// sweep.
func (c *Coordinator) handleProgress(w http.ResponseWriter, r *http.Request) {
	ch, cancel := c.subscribe()
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}
	enc := json.NewEncoder(w)
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-ch:
			if err := enc.Encode(ev); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
}
