package farm

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	caba "github.com/caba-sim/caba"
)

// fakeClock is a hand-advanced clock for lease-boundary tests. The
// coordinator's janitor still ticks on real time but reads this clock,
// so nothing moves until a test advances it.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t = f.t.Add(d)
}

// harvestNow forces a lease-expiry sweep without taking any work: a
// heartbeat for an unknown lease harvests first, then 409s harmlessly.
func harvestNow(t *testing.T, base string) {
	t.Helper()
	call(t, base+"/heartbeat", &HeartbeatRequest{Lease: "bogus-harvest-trigger"}, nil)
}

// getHealth fetches /healthz.
func getHealth(t *testing.T, base string) (*HealthResponse, int) {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	return &h, resp.StatusCode
}

// callCode POSTs JSON and returns the status code, the response body
// text, and the Retry-After header.
func callCode(t *testing.T, url string, in any) (int, string, string) {
	t.Helper()
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(string(raw)))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	return resp.StatusCode, string(body), resp.Header.Get("Retry-After")
}

// TestHeartbeatTTLBoundary pins the lease deadline semantics exactly: a
// heartbeat arriving at precisely now == deadline still extends the
// lease (harvest evicts strictly after the deadline), and a heartbeat
// arriving after a harvest gets 409.
func TestHeartbeatTTLBoundary(t *testing.T) {
	clk := newFakeClock()
	const ttl = 1 * time.Second
	_, srv := newTestFarm(t, t.TempDir(), CoordinatorConfig{LeaseTTL: ttl, Now: clk.now})
	call(t, srv.URL+"/sweep", &SweepRequest{Cells: []Cell{testCell("SCP", "Base", 0.02, 11)}}, nil)
	lr := leaseOne(t, srv.URL, "w1")

	// Exactly at the deadline: still alive.
	clk.advance(ttl)
	if code := call(t, srv.URL+"/heartbeat", &HeartbeatRequest{Lease: lr.Lease}, nil); code != http.StatusNoContent {
		t.Fatalf("heartbeat at exactly TTL: HTTP %d, want 204 (deadline is inclusive)", code)
	}

	// One nanosecond past the (extended) deadline: harvested first, 409.
	clk.advance(ttl + time.Nanosecond)
	if code := call(t, srv.URL+"/heartbeat", &HeartbeatRequest{Lease: lr.Lease}, nil); code != http.StatusConflict {
		t.Fatalf("heartbeat past TTL: HTTP %d, want 409 (lease harvested)", code)
	}

	// The harvest charged the expiry and re-queued the cell.
	st := getStatus(t, srv.URL, "?results=0")
	if st.Pending != 1 || st.Leased != 0 {
		t.Fatalf("status after harvest = %+v, want the cell re-queued", st)
	}
}

// TestHeartbeatRenewsWhileStateLocked: a heartbeat extends its lease
// without waiting for the coordinator's state lock, which storing a
// result, recording a victim or compacting the journal holds across
// fsyncs. Holding the lock for twice the TTL while the worker heartbeats
// must not expire the lease.
func TestHeartbeatRenewsWhileStateLocked(t *testing.T) {
	const ttl = 100 * time.Millisecond
	c, srv := newTestFarm(t, t.TempDir(), CoordinatorConfig{LeaseTTL: ttl})
	call(t, srv.URL+"/sweep", &SweepRequest{Cells: []Cell{testCell("SCP", "Base", 0.02, 11)}}, nil)
	lr := leaseOne(t, srv.URL, "w1")
	body, err := json.Marshal(&HeartbeatRequest{Lease: lr.Lease})
	if err != nil {
		t.Fatal(err)
	}
	heartbeat := func() int {
		resp, err := http.Post(srv.URL+"/heartbeat", "application/json", strings.NewReader(string(body)))
		if err != nil {
			return 0
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	stop := make(chan struct{})
	codes := make(chan int, 100)
	go func() {
		defer close(codes)
		for {
			select {
			case <-stop:
				return
			case <-time.After(ttl / 5):
				codes <- heartbeat()
			}
		}
	}()
	c.mu.Lock()
	time.Sleep(2 * ttl)
	c.mu.Unlock()
	close(stop)
	for code := range codes {
		if code != http.StatusNoContent {
			t.Errorf("heartbeat while the state lock was held: HTTP %d, want 204", code)
		}
	}
	if code := heartbeat(); code != http.StatusNoContent {
		t.Fatalf("heartbeat after the lock was released: HTTP %d, want 204 (lease lost)", code)
	}
	if st := getStatus(t, srv.URL, "?results=0"); st.Leased != 1 {
		t.Fatalf("status = %+v, want the cell still leased", st)
	}
}

// TestDoubleRelease: the second release of the same lease token must be
// rejected with 409 — the first settle consumed the worker's authority.
func TestDoubleRelease(t *testing.T) {
	_, srv := newTestFarm(t, t.TempDir(), CoordinatorConfig{})
	call(t, srv.URL+"/sweep", &SweepRequest{Cells: []Cell{testCell("SCP", "Base", 0.02, 11)}}, nil)
	lr := leaseOne(t, srv.URL, "w1")
	if code := call(t, srv.URL+"/report", &ReportRequest{Lease: lr.Lease, Released: true}, nil); code != http.StatusNoContent {
		t.Fatalf("first release: HTTP %d, want 204", code)
	}
	if code := call(t, srv.URL+"/report", &ReportRequest{Lease: lr.Lease, Released: true}, nil); code != http.StatusConflict {
		t.Fatalf("double release: HTTP %d, want 409", code)
	}
	st := getStatus(t, srv.URL, "?results=0")
	if st.Pending != 1 {
		t.Fatalf("status after double release = %+v, want exactly one pending cell (no double requeue)", st)
	}
}

// TestAdmission429 exercises the bounded queue: a submission that would
// push live cells past MaxQueue stops with 429 + Retry-After, everything
// accepted before the bound stays accepted, and the identical
// resubmission succeeds once capacity frees up.
func TestAdmission429(t *testing.T) {
	_, srv := newTestFarm(t, t.TempDir(), CoordinatorConfig{MaxQueue: 2})
	cells := []Cell{
		testCell("SCP", "Base", 0.02, 11),
		testCell("SCP", "Base", 0.02, 12),
		testCell("SCP", "Base", 0.02, 13),
	}
	code, body, retryAfter := callCode(t, srv.URL+"/sweep", &SweepRequest{Cells: cells, Client: "c1"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("oversized submission: HTTP %d (%s), want 429", code, body)
	}
	if retryAfter == "" {
		t.Error("429 lacks a Retry-After header")
	}
	st := getStatus(t, srv.URL, "?results=0")
	if st.Pending != 2 {
		t.Fatalf("pending = %d, want the 2 cells admitted before the bound", st.Pending)
	}

	// Complete one admitted cell to free capacity.
	lr := leaseOne(t, srv.URL, "w1")
	call(t, srv.URL+"/report", &ReportRequest{Lease: lr.Lease,
		Result: &caba.Result{App: "SCP", Design: "Base", Cycles: 100, IPC: 1}}, nil)

	// The verbatim retry is safe: the two earlier cells dedupe, the
	// third is admitted now.
	var sw SweepResponse
	if code := call(t, srv.URL+"/sweep", &SweepRequest{Cells: cells, Client: "c1"}, &sw); code != 200 {
		t.Fatalf("retry after capacity freed: HTTP %d", code)
	}
	if sw.Accepted != 1 || sw.Known != 2 {
		t.Fatalf("retry = %+v, want 1 newly accepted + 2 known", sw)
	}
	h, _ := getHealth(t, srv.URL)
	if h.Rejected429 == 0 {
		t.Errorf("healthz rejected_429 = 0, want the rejection counted")
	}
}

// TestClientQuota: one client at its quota is rejected while another
// client still gets in — a runaway submitter cannot starve the fleet.
func TestClientQuota(t *testing.T) {
	_, srv := newTestFarm(t, t.TempDir(), CoordinatorConfig{MaxQueue: 10, ClientQuota: 1})
	a1 := testCell("SCP", "Base", 0.02, 11)
	a2 := testCell("SCP", "Base", 0.02, 12)
	var sw SweepResponse
	if code := call(t, srv.URL+"/sweep", &SweepRequest{Cells: []Cell{a1}, Client: "greedy"}, &sw); code != 200 || sw.Accepted != 1 {
		t.Fatalf("first cell: HTTP %d %+v, want accepted", code, sw)
	}
	code, body, _ := callCode(t, srv.URL+"/sweep", &SweepRequest{Cells: []Cell{a2}, Client: "greedy"})
	if code != http.StatusTooManyRequests || !strings.Contains(body, "quota") {
		t.Fatalf("over-quota submission: HTTP %d (%s), want 429 naming the quota", code, body)
	}
	if code := call(t, srv.URL+"/sweep", &SweepRequest{Cells: []Cell{a2}, Client: "modest"}, &sw); code != 200 || sw.Accepted != 1 {
		t.Fatalf("other client: HTTP %d %+v, want accepted", code, sw)
	}
}

// TestPoisonBreaker: a cell that kills PoisonThreshold distinct workers
// is quarantined — terminal, durable, never leased again, distinct from
// a wedge — and the quarantine survives a coordinator restart.
func TestPoisonBreaker(t *testing.T) {
	clk := newFakeClock()
	const ttl = 200 * time.Millisecond
	dir := t.TempDir()
	cfg := CoordinatorConfig{
		LeaseTTL: ttl, Now: clk.now, PoisonThreshold: 2,
		MaxAttempts: 10, RetryBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
	}
	c, srv := newTestFarm(t, dir, cfg)
	cell := testCell("SCP", "Base", 0.02, 11)
	key, _ := cell.Key()
	call(t, srv.URL+"/sweep", &SweepRequest{Cells: []Cell{cell}}, nil)

	// Victim 1: w1 leases and dies; its lease expires.
	if lr := leaseOne(t, srv.URL, "w1"); lr.Lease == "" {
		t.Fatal("no lease for w1")
	}
	clk.advance(ttl + 10*time.Millisecond)
	harvestNow(t, srv.URL)
	clk.advance(50 * time.Millisecond) // clear the retry backoff window

	// Victim 2: w2 leases the re-queued cell and dies too.
	lr2 := leaseOne(t, srv.URL, "w2")
	if lr2.Attempt != 2 {
		t.Fatalf("w2 attempt = %d, want 2 (w1's expiry charged)", lr2.Attempt)
	}
	clk.advance(ttl + 10*time.Millisecond)
	harvestNow(t, srv.URL) // second distinct victim: the breaker trips

	var lr3 LeaseResponse
	call(t, srv.URL+"/lease", &LeaseRequest{Worker: "w3"}, &lr3)
	if lr3.Lease != "" {
		t.Fatalf("poisoned cell was leased to w3: %+v", lr3)
	}
	st := getStatus(t, srv.URL, "?results=0")
	if st.Failed != 1 || st.Poisoned != 1 {
		t.Fatalf("status = %+v, want 1 failed, 1 poisoned", st)
	}
	if len(st.Failures) != 1 || !st.Failures[0].Poison || st.Failures[0].Wedge {
		t.Fatalf("failure = %+v, want poison (not wedge)", st.Failures)
	}
	if !strings.Contains(st.Failures[0].Error, "w1") || !strings.Contains(st.Failures[0].Error, "w2") {
		t.Errorf("poison diagnosis %q does not name its victims", st.Failures[0].Error)
	}
	if _, victims, _, ok := c.Store().GetPoison(key); !ok || len(victims) != 2 {
		t.Fatalf("store poison record: ok=%v victims=%v, want sealed record with 2 victims", ok, victims)
	}
	h, _ := getHealth(t, srv.URL)
	if h.Poisoned != 1 {
		t.Errorf("healthz poisoned = %d, want 1", h.Poisoned)
	}

	// Durable across restart: the fresh coordinator serves the
	// quarantine as a cache hit and never re-leases the cell.
	srv.Close()
	c.Close()
	_, srv2 := newTestFarm(t, dir, CoordinatorConfig{LeaseTTL: ttl, PoisonThreshold: 2})
	var sw SweepResponse
	call(t, srv2.URL+"/sweep", &SweepRequest{Cells: []Cell{cell}}, &sw)
	if sw.CacheHits != 1 || sw.Accepted != 0 {
		t.Fatalf("resubmission after restart = %+v, want 1 cache hit", sw)
	}
	st2 := getStatus(t, srv2.URL, "?results=0")
	if st2.Poisoned != 1 || len(st2.Failures) != 1 || !st2.Failures[0].Poison {
		t.Fatalf("restarted status = %+v, want the poison quarantine preserved", st2)
	}
	var lr4 LeaseResponse
	call(t, srv2.URL+"/lease", &LeaseRequest{Worker: "w9"}, &lr4)
	if lr4.Lease != "" {
		t.Fatal("restarted coordinator leased a poisoned cell")
	}
}

// TestVictimAvoidance: the dispatcher passes over cells that already
// count the requesting worker among their victims when other work is
// ready, but still grants such a cell when it is the only one — no
// livelock for small fleets.
func TestVictimAvoidance(t *testing.T) {
	clk := newFakeClock()
	const ttl = 200 * time.Millisecond
	_, srv := newTestFarm(t, t.TempDir(), CoordinatorConfig{
		LeaseTTL: ttl, Now: clk.now, PoisonThreshold: 99,
		MaxAttempts: 10, RetryBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
	})
	cellA := testCell("SCP", "Base", 0.02, 11)
	cellB := testCell("SCP", "Base", 0.02, 12)
	keyA, _ := cellA.Key()
	keyB, _ := cellB.Key()
	call(t, srv.URL+"/sweep", &SweepRequest{Cells: []Cell{cellA, cellB}}, nil)

	// w1 draws A (oldest) and dies; A records w1 as a victim.
	lr := leaseOne(t, srv.URL, "w1")
	if lr.Key != KeyString(keyA) {
		t.Fatalf("first grant = %s, want oldest cell A %s", lr.Key, KeyString(keyA))
	}
	clk.advance(ttl + 10*time.Millisecond)
	harvestNow(t, srv.URL)
	clk.advance(50 * time.Millisecond) // A is ready again (backoff passed)

	// w1 returns: it should be steered to B even though A is older.
	lr2 := leaseOne(t, srv.URL, "w1")
	if lr2.Key != KeyString(keyB) {
		t.Fatalf("victim worker was handed its old cell back: got %s, want B %s", lr2.Key, KeyString(keyB))
	}

	// With B leased, A is the only ready cell: the fallback grants it to
	// w1 anyway rather than starving the queue.
	lr3 := leaseOne(t, srv.URL, "w1")
	if lr3.Key != KeyString(keyA) {
		t.Fatalf("fallback grant = %s, want A %s (only ready cell)", lr3.Key, KeyString(keyA))
	}
}

// TestResourceExhaustedReport: a resource-exhausted report charges a
// transient attempt, records the worker as a victim (feeding the poison
// breaker), and the cell still completes on a later attempt.
func TestResourceExhaustedReport(t *testing.T) {
	_, srv := newTestFarm(t, t.TempDir(), CoordinatorConfig{
		PoisonThreshold: 3, MaxAttempts: 10,
		RetryBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
	})
	cell := testCell("SCP", "Base", 0.02, 11)
	key, _ := cell.Key()
	call(t, srv.URL+"/sweep", &SweepRequest{Cells: []Cell{cell}}, nil)

	lr := leaseOne(t, srv.URL, "w1")
	if code := call(t, srv.URL+"/report", &ReportRequest{Lease: lr.Lease, Error: "heap blown", Resource: "memory"}, nil); code != http.StatusNoContent {
		t.Fatalf("resource report: HTTP %d", code)
	}
	st := getStatus(t, srv.URL, "?results=0")
	if st.Pending != 1 || st.Failed != 0 {
		t.Fatalf("status = %+v, want the cell re-queued (transient), not failed", st)
	}
	hist := st.Attempts[KeyString(key)]
	if len(hist) != 1 || hist[0].Outcome != "resource" || !strings.Contains(hist[0].Error, "memory") {
		t.Fatalf("history = %+v, want one resource-exhausted attempt", hist)
	}

	// Same worker gets it back via the fallback (only cell) and lands it.
	lr2 := leaseOne(t, srv.URL, "w1")
	if lr2.Attempt != 2 {
		t.Fatalf("attempt = %d, want 2 (the resource abort was charged)", lr2.Attempt)
	}
	call(t, srv.URL+"/report", &ReportRequest{Lease: lr2.Lease,
		Result: &caba.Result{App: "SCP", Design: "Base", Cycles: 100, IPC: 1}}, nil)
	st = getStatus(t, srv.URL, "?results=0")
	if st.Done != 1 || st.Poisoned != 0 {
		t.Fatalf("final status = %+v, want done without poison (below threshold)", st)
	}
}

// TestJournalCompaction: dead journal lines (victim events) trigger
// compaction down to one line per cell, the counters report it, and a
// restart over the compacted journal reproduces the exact queue state —
// the folded victim set on the live cell and the completed cell's
// outcome included.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	cfg := CoordinatorConfig{
		LeaseTTL: 40 * time.Millisecond, CompactMinLines: 3, PoisonThreshold: 99,
		MaxAttempts: 100, RetryBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
	}
	c, srv := newTestFarm(t, dir, cfg)
	cellA := testCell("SCP", "Base", 0.02, 11)
	cellB := testCell("SCP", "Base", 0.02, 12)
	keyA, _ := cellA.Key()

	// Complete B first so the restart check covers a done cell.
	call(t, srv.URL+"/sweep", &SweepRequest{Cells: []Cell{cellB}}, nil)
	lrB := leaseOne(t, srv.URL, "finisher")
	call(t, srv.URL+"/report", &ReportRequest{Lease: lrB.Lease,
		Result: &caba.Result{App: "SCP", Design: "Base", Cycles: 100, IPC: 1}}, nil)

	// Three distinct workers die on cell A: 3 victim lines are dead
	// weight against 2 live acceptance lines.
	call(t, srv.URL+"/sweep", &SweepRequest{Cells: []Cell{cellA}}, nil)
	for _, worker := range []string{"w1", "w2", "w3"} {
		lr := leaseOne(t, srv.URL, worker)
		if lr.Key != KeyString(keyA) {
			t.Fatalf("worker %s leased %s, want cell A %s", worker, lr.Key, KeyString(keyA))
		}
		time.Sleep(60 * time.Millisecond) // past the TTL
		harvestNow(t, srv.URL)
		time.Sleep(20 * time.Millisecond) // past the re-queue backoff
	}

	c.maybeCompact() // the janitor's own trigger, forced deterministically
	if got := c.compactions.Load(); got != 1 {
		c.mu.Lock()
		lines, known := c.journalLines, len(c.order)
		c.mu.Unlock()
		t.Fatalf("compactions = %d (journal %d lines, %d cells), want exactly 1", got, lines, known)
	}
	raw, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(raw), "\n"); n != 2 {
		t.Fatalf("compacted journal has %d lines, want 2 (one per cell)", n)
	}
	h, _ := getHealth(t, srv.URL)
	if h.Compactions != 1 {
		t.Errorf("healthz compactions = %d, want 1", h.Compactions)
	}

	// Restart: state reproduced from the compacted journal.
	srv.Close()
	c.Close()
	c2, srv2 := newTestFarm(t, dir, cfg)
	st := getStatus(t, srv2.URL, "?results=0")
	if st.Pending != 1 || st.Done != 1 {
		t.Fatalf("restarted status = %+v, want cell A pending + cell B done", st)
	}
	c2.mu.Lock()
	victims := append([]string(nil), c2.cells[keyA].victims...)
	c2.mu.Unlock()
	if len(victims) != 3 {
		t.Fatalf("cell A victims after restart = %v, want the 3 folded into the compacted line", victims)
	}
}

// TestTornCompactionRecovery: a crash mid-compaction leaves a stale temp
// file; the next open must discard it and replay the intact original
// journal.
func TestTornCompactionRecovery(t *testing.T) {
	dir := t.TempDir()
	cell := testCell("SCP", "Base", 0.02, 11)
	key, _ := cell.Key()
	line, _ := json.Marshal(journalLine{Key: KeyString(key), Cell: &cell})
	if err := os.WriteFile(filepath.Join(dir, journalName), append(line, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, compactTmpName), []byte(`{"key":"torn mid-comp`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, srv := newTestFarm(t, dir, CoordinatorConfig{})
	st := getStatus(t, srv.URL, "?results=0")
	if st.Pending != 1 {
		t.Fatalf("status = %+v, want the original journal replayed", st)
	}
	if _, err := os.Stat(filepath.Join(dir, compactTmpName)); !errors.Is(err, os.ErrNotExist) {
		t.Error("stale compaction temp file survived open")
	}
}

// TestTornTailTruncatedOnOpen: a torn trailing line must be truncated at
// open, not merely skipped — otherwise lines appended after it are
// unreachable to every future replay.
func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	cellA := testCell("SCP", "Base", 0.02, 11)
	cellB := testCell("SCP", "Base", 0.02, 12)
	keyA, _ := cellA.Key()
	line, _ := json.Marshal(journalLine{Key: KeyString(keyA), Cell: &cellA})
	raw := append(append([]byte{}, line...), '\n')
	raw = append(raw, []byte(`{"key":"dead`)...) // torn mid-append
	if err := os.WriteFile(filepath.Join(dir, journalName), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// First open tolerates the tear; cell B is appended after it.
	c, srv := newTestFarm(t, dir, CoordinatorConfig{})
	var sw SweepResponse
	call(t, srv.URL+"/sweep", &SweepRequest{Cells: []Cell{cellB}}, &sw)
	if sw.Accepted != 1 {
		t.Fatalf("sweep = %+v, want cell B accepted", sw)
	}
	srv.Close()
	c.Close()

	// Second open must see both cells: B's line landed on a clean tail.
	_, srv2 := newTestFarm(t, dir, CoordinatorConfig{})
	st := getStatus(t, srv2.URL, "?results=0")
	if st.Pending != 2 {
		t.Fatalf("status after re-open = %+v, want both cells replayed", st)
	}
}

// TestLongPollShedding: once MaxLongPolls /status waits are parked,
// further long-polls are served as immediate snapshots with X-Farm-Shed
// set, and the shed is counted.
func TestLongPollShedding(t *testing.T) {
	_, srv := newTestFarm(t, t.TempDir(), CoordinatorConfig{MaxLongPolls: 1})
	// One pending cell keeps the sweep un-drained so long-polls park.
	call(t, srv.URL+"/sweep", &SweepRequest{Cells: []Cell{testCell("SCP", "Base", 0.02, 11)}}, nil)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/status?results=0&wait_ms=30000", nil)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	time.Sleep(150 * time.Millisecond) // let the first poll park server-side

	start := time.Now()
	resp, err := http.Get(srv.URL + "/status?results=0&wait_ms=30000")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Farm-Shed") != "1" {
		t.Error("second long-poll was not shed (no X-Farm-Shed header)")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("shed long-poll took %s, want an immediate snapshot", elapsed)
	}
	h, _ := getHealth(t, srv.URL)
	if h.ShedLongPolls == 0 {
		t.Error("healthz shed_long_polls = 0, want the shed counted")
	}
}

// TestHealthzStates walks the health ladder: ok → degraded (≥80%
// occupancy) → saturated (full, HTTP 503) → draining (Quiesce, 503 with
// no leases and no admissions).
func TestHealthzStates(t *testing.T) {
	c, srv := newTestFarm(t, t.TempDir(), CoordinatorConfig{MaxQueue: 5})
	if h, code := getHealth(t, srv.URL); h.State != "ok" || code != 200 {
		t.Fatalf("fresh healthz = %s/%d, want ok/200", h.State, code)
	}
	var cells []Cell
	for seed := int64(11); seed < 16; seed++ {
		cells = append(cells, testCell("SCP", "Base", 0.02, seed))
	}
	call(t, srv.URL+"/sweep", &SweepRequest{Cells: cells[:4]}, nil)
	if h, code := getHealth(t, srv.URL); h.State != "degraded" || code != 200 {
		t.Fatalf("healthz at 4/5 = %s/%d, want degraded/200", h.State, code)
	}
	call(t, srv.URL+"/sweep", &SweepRequest{Cells: cells[4:]}, nil)
	h, code := getHealth(t, srv.URL)
	if h.State != "saturated" || code != http.StatusServiceUnavailable {
		t.Fatalf("healthz at 5/5 = %s/%d, want saturated/503", h.State, code)
	}
	if h.QueueLive != 5 || h.QueueCap != 5 {
		t.Fatalf("healthz occupancy = %d/%d, want 5/5", h.QueueLive, h.QueueCap)
	}

	c.Quiesce()
	if h, code := getHealth(t, srv.URL); h.State != "draining" || code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after Quiesce = %s/%d, want draining/503", h.State, code)
	}
	code2, _, retryAfter := callCode(t, srv.URL+"/sweep", &SweepRequest{Cells: []Cell{testCell("SCP", "Base", 0.02, 99)}})
	if code2 != http.StatusServiceUnavailable || retryAfter == "" {
		t.Fatalf("sweep while draining: HTTP %d (Retry-After %q), want 503 with a hint", code2, retryAfter)
	}
	var lr LeaseResponse
	call(t, srv.URL+"/lease", &LeaseRequest{Worker: "w1"}, &lr)
	if lr.Lease != "" {
		t.Fatal("draining coordinator granted a lease")
	}
}

// TestResourceWatchCPU: the CPU-time watchdog aborts a compute-bound
// task with a typed *ResourceError carried through the context cause.
func TestResourceWatchCPU(t *testing.T) {
	if cpuTime() < 0 {
		t.Skip("platform cannot report process CPU time")
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	stop := startResourceWatch(cancel, 0, time.Nanosecond)
	defer stop()
	deadline := time.Now().Add(10 * time.Second)
	x := 0
	for ctx.Err() == nil && time.Now().Before(deadline) {
		x++ // burn CPU until the watchdog fires
	}
	_ = x
	var re *ResourceError
	if !errors.As(context.Cause(ctx), &re) || re.Kind != "cpu" {
		t.Fatalf("cause = %v, want a cpu *ResourceError", context.Cause(ctx))
	}
}

// TestWorkerMemBudget is the end-to-end memory-budget path: the
// watchdog aborts the first attempt as resource-exhausted (the worker
// process survives), the coordinator re-queues, and the second attempt
// completes with the bit-identical in-process result.
func TestWorkerMemBudget(t *testing.T) {
	cell := testCell("PVC", "CABA-BDI", 0.05, 11)
	key, _ := cell.Key()
	ref, err := caba.Run(cell.Config, cell.Design, cell.App, cell.Seed)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	refRaw, _ := json.Marshal(ref)

	_, srv := newTestFarm(t, t.TempDir(), CoordinatorConfig{
		LeaseTTL: 2 * time.Second, RetryBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
	})
	call(t, srv.URL+"/sweep", &SweepRequest{Cells: []Cell{cell}}, nil)

	w := NewWorker(srv.URL, WorkerConfig{
		Name: "budgeted", PollInterval: 10 * time.Millisecond,
		CellTimeout: time.Minute, ExitWhenDrained: true, Logf: t.Logf,
	})
	w.hooks.memLimitFor = func(_ Cell, attempt int) int64 {
		if attempt == 1 {
			return 1 // impossible budget: the watchdog must abort attempt 1
		}
		return 0
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := w.Run(ctx); err != nil {
		t.Fatalf("worker: %v", err)
	}

	st := getStatus(t, srv.URL, "")
	if st.Done != 1 || st.Failed != 0 {
		t.Fatalf("status = %+v, want the cell done", st)
	}
	hist := st.Attempts[KeyString(key)]
	if len(hist) < 2 || hist[0].Outcome != "resource" || !strings.Contains(hist[0].Error, "memory") {
		t.Fatalf("history = %+v, want a memory resource abort then success", hist)
	}
	if hist[len(hist)-1].Outcome != "ok" {
		t.Fatalf("history = %+v, want the final attempt ok", hist)
	}
	got, _ := json.Marshal(st.Results[KeyString(key)])
	if string(got) != string(refRaw) {
		t.Errorf("budget-aborted-then-retried result differs from the in-process run")
	}
}

// TestBlobDiskPreflight: with an unsatisfiable disk-headroom floor the
// store refuses checkpoint uploads with 507 (results still store — a
// computed result must always land) and /healthz degrades.
func TestBlobDiskPreflight(t *testing.T) {
	if diskFree(".") < 0 {
		t.Skip("platform cannot report disk free space")
	}
	_, srv := newTestFarm(t, t.TempDir(), CoordinatorConfig{MinDiskFree: 1 << 60})
	cell := testCell("SCP", "Base", 0.02, 11)
	call(t, srv.URL+"/sweep", &SweepRequest{Cells: []Cell{cell}}, nil)
	lr := leaseOne(t, srv.URL, "w1")

	blob := validBlob(t, cell)
	resp, err := http.Post(srv.URL+"/checkpoint?lease="+lr.Lease, "application/octet-stream", strings.NewReader(string(blob)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("checkpoint upload with no headroom: HTTP %d, want 507", resp.StatusCode)
	}
	h, _ := getHealth(t, srv.URL)
	if h.State != "degraded" {
		t.Errorf("healthz state = %s, want degraded on low disk", h.State)
	}

	// The result path is never preflighted: losing a checkpoint is
	// recoverable, losing a computed result is not.
	if code := call(t, srv.URL+"/report", &ReportRequest{Lease: lr.Lease,
		Result: &caba.Result{App: "SCP", Design: "Base", Cycles: 100, IPC: 1}}, nil); code != http.StatusNoContent {
		t.Fatalf("report with low disk: HTTP %d, want the result stored anyway", code)
	}
}

// validBlob runs a short checkpointed simulation to obtain a genuine
// sealed snapshot container for upload tests.
func validBlob(t *testing.T, cell Cell) []byte {
	t.Helper()
	cfg := cell.Config
	cfg.CheckpointEvery = 1000
	var blob []byte
	_, _, err := caba.RunResumable(context.Background(), cfg, cell.Design, cell.App, cell.Seed, nil,
		func(cycle uint64, b []byte) error {
			if blob == nil {
				blob = append([]byte(nil), b...)
			}
			return nil
		})
	if err != nil {
		t.Fatalf("building checkpoint blob: %v", err)
	}
	if blob == nil {
		t.Fatal("no checkpoint produced")
	}
	return blob
}
