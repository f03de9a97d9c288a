package farm

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	caba "github.com/caba-sim/caba"
	"github.com/caba-sim/caba/internal/snapshot"
)

// testCell builds a small valid sweep cell.
func testCell(app, designName string, scale float64, seed int64) Cell {
	design := caba.Base
	if designName == caba.CABABDI.Name {
		design = caba.CABABDI
	}
	cfg := caba.Baseline()
	cfg.Scale = scale
	return Cell{App: app, Seed: seed, Config: cfg, Design: design}
}

// newTestFarm starts a coordinator over dir behind an httptest server.
func newTestFarm(t *testing.T, dir string, cfg CoordinatorConfig) (*Coordinator, *httptest.Server) {
	t.Helper()
	cfg.Dir = dir
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(func() { srv.Close(); c.Close() })
	return c, srv
}

// call POSTs a JSON request and decodes the JSON response, returning the
// HTTP status.
func call(t *testing.T, url string, in, out any) int {
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
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// getStatus fetches /status.
func getStatus(t *testing.T, base string, query string) *StatusResponse {
	t.Helper()
	resp, err := http.Get(base + "/status" + query)
	if err != nil {
		t.Fatalf("GET /status: %v", err)
	}
	defer resp.Body.Close()
	var st StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	return &st
}

// leaseOne polls /lease until a cell is granted (retries cover backoff
// windows) or the deadline passes.
func leaseOne(t *testing.T, base, worker string) *LeaseResponse {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var lr LeaseResponse
		if code := call(t, base+"/lease", &LeaseRequest{Worker: worker}, &lr); code != 200 {
			t.Fatalf("lease: HTTP %d", code)
		}
		if lr.Lease != "" {
			return &lr
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no lease granted within deadline")
	return nil
}

// TestCellKeyStrategyInvariance: a cell's content address moves if and
// only if config.Config.ResultConfig does, for every Config field, so the
// result-neutral knobs (the ignored worker count, checkpoint and audit
// cadence, the flight recorder, output paths) share cached results and
// everything result-determining does not. The cell's own identity (seed,
// app, design) always moves it.
func TestCellKeyStrategyInvariance(t *testing.T) {
	base := testCell("PVC", "Base", 0.02, 11)
	ref, err := base.Key()
	if err != nil {
		t.Fatalf("Key: %v", err)
	}
	typ := reflect.TypeOf(base.Config)
	for i := range typ.NumField() {
		c := base
		perturb(t, reflect.ValueOf(&c.Config).Elem().Field(i))
		got, err := c.Key()
		if err != nil {
			t.Fatalf("%s: %v", typ.Field(i).Name, err)
		}
		neutral := c.Config.ResultConfig() == base.Config.ResultConfig()
		if (got == ref) != neutral {
			t.Errorf("%s: key moved %v, ResultConfig moved %v", typ.Field(i).Name, got != ref, !neutral)
		}
	}
	for i, mutate := range []func(*Cell){
		func(c *Cell) { c.Seed = 12 },
		func(c *Cell) { c.App = "SCP" },
		func(c *Cell) { c.Design = caba.CABABDI },
		func(c *Cell) { c.Design.UseCase = caba.UsePrefetch },
	} {
		c := base
		mutate(&c)
		got, err := c.Key()
		if err != nil {
			t.Fatalf("identity %d: %v", i, err)
		}
		if got == ref {
			t.Errorf("identity change %d did not change the cell key", i)
		}
	}
}

// perturb sets v to a value other than its current one: numbers grow by
// one, booleans flip, strings gain a suffix, and a struct perturbs its
// first field.
func perturb(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Struct:
		perturb(t, v.Field(0))
	default:
		t.Fatalf("cannot perturb a %s", v.Type())
	}
}

// corruptFile flips one byte near the end of the file (inside the CRC'd
// payload region).
func corruptFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	raw[len(raw)-5] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
}

// TestStoreResultVerifyAndQuarantine: results round-trip through the
// sealed container; a corrupted entry reads as absent and is moved aside,
// never served.
func TestStoreResultVerifyAndQuarantine(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res := &caba.Result{App: "PVC", Design: "Base", Cycles: 42, IPC: 1.25}
	if err := s.PutResult(7, res); err != nil {
		t.Fatalf("PutResult: %v", err)
	}
	got, err := s.GetResult(7)
	if err != nil || got == nil || got.Cycles != 42 || got.IPC != 1.25 {
		t.Fatalf("GetResult = %+v, %v", got, err)
	}
	// Wrong address: the container binds the key, so a file copied to
	// another address must not be served.
	if err := os.Rename(s.resultPath(7), s.resultPath(8)); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.GetResult(8); got != nil {
		t.Error("result served from the wrong content address")
	}
	if s.Quarantined() != 1 {
		t.Errorf("Quarantined = %d, want 1", s.Quarantined())
	}
	// Corrupt payload: CRC catches it.
	if err := s.PutResult(9, res); err != nil {
		t.Fatal(err)
	}
	corruptFile(t, s.resultPath(9))
	if got, _ := s.GetResult(9); got != nil {
		t.Error("corrupt result served")
	}
	if s.Quarantined() != 2 {
		t.Errorf("Quarantined = %d, want 2", s.Quarantined())
	}
	if _, err := os.Stat(s.resultPath(9) + ".quarantine"); err != nil {
		t.Errorf("corrupt entry not preserved in quarantine: %v", err)
	}
	// Schema guard: a structurally valid but wrong-shaped payload is
	// rejected at write time.
	if err := s.PutResult(10, &caba.Result{}); err == nil {
		t.Error("PutResult accepted a result failing the schema check")
	}
}

// TestStoreFailureRecords: terminal failures round-trip durably and
// corrupt records read as absent.
func TestStoreFailureRecords(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := s.GetFailure(3); ok {
		t.Fatal("GetFailure on empty store reported a record")
	}
	if err := s.PutFailure(3, "caba: PVC/Base: wedged", true, 1); err != nil {
		t.Fatalf("PutFailure: %v", err)
	}
	msg, wedge, attempts, ok := s.GetFailure(3)
	if !ok || !wedge || attempts != 1 || !strings.Contains(msg, "wedged") {
		t.Fatalf("GetFailure = %q %v %d %v", msg, wedge, attempts, ok)
	}
	corruptFile(t, s.failPath(3))
	if _, _, _, ok := s.GetFailure(3); ok {
		t.Error("corrupt failure record served")
	}
	if s.Quarantined() != 1 {
		t.Errorf("Quarantined = %d, want 1", s.Quarantined())
	}
}

// TestStoreBlobVerification: checkpoint blobs are verified as sealed
// containers on write and on read.
func TestStoreBlobVerification(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutBlob(1, []byte("not a snapshot container")); err == nil {
		t.Fatal("PutBlob accepted garbage")
	}
	blob := snapshot.Seal(99, []byte("checkpoint payload"))
	if err := s.PutBlob(1, blob); err != nil {
		t.Fatalf("PutBlob: %v", err)
	}
	if !s.HasBlob(1) {
		t.Fatal("HasBlob = false after PutBlob")
	}
	got, err := s.GetBlob(1)
	if err != nil || string(got) != string(blob) {
		t.Fatalf("GetBlob mismatch: %v", err)
	}
	corruptFile(t, s.BlobPath(1))
	if got, _ := s.GetBlob(1); got != nil {
		t.Error("corrupt blob served")
	}
	if s.Quarantined() != 1 {
		t.Errorf("Quarantined = %d, want 1", s.Quarantined())
	}
	s.DeleteBlob(1)
	if s.HasBlob(1) {
		t.Error("HasBlob = true after DeleteBlob")
	}
}

// TestStoreReadsNeverWaitForWrites: a put writes and fsyncs its entry to
// a temporary file of its own without the store lock, which covers only
// the rename. While one PutBlob is held in its write phase, reads of
// other keys return; concurrent PutBlobs of one key leave one whole blob
// that verifies and no temporary file behind.
func TestStoreReadsNeverWaitForWrites(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutResult(2, &caba.Result{App: "PVC", Design: "Base", Cycles: 42}); err != nil {
		t.Fatal(err)
	}
	blob := snapshot.Seal(99, []byte("checkpoint payload"))
	if err := s.PutBlob(3, blob); err != nil {
		t.Fatal(err)
	}

	entered, release := make(chan struct{}), make(chan struct{})
	s.slowWrite = func() {
		entered <- struct{}{}
		<-release
	}
	put := make(chan error, 1)
	go func() { put <- s.PutBlob(1, blob) }()
	<-entered
	reads := make(chan struct{})
	go func() {
		defer close(reads)
		if res, err := s.GetResult(2); err != nil || res == nil {
			t.Errorf("GetResult = %v, %v", res, err)
		}
		if got, err := s.GetBlob(3); err != nil || string(got) != string(blob) {
			t.Errorf("GetBlob mismatch: %v", err)
		}
		if !s.HasBlob(3) {
			t.Error("HasBlob = false for a stored blob")
		}
	}()
	select {
	case <-reads:
	case <-time.After(5 * time.Second):
		t.Error("store reads waited behind another entry's write")
	}
	close(release)
	if err := <-put; err != nil {
		t.Fatalf("PutBlob: %v", err)
	}
	<-reads

	// Writers of one key race through their write phases together: each
	// waits (up to a deadline) until all of them are inside one.
	const writers = 8
	var ready sync.WaitGroup
	ready.Add(writers)
	allIn := make(chan struct{})
	go func() {
		ready.Wait()
		close(allIn)
	}()
	s.slowWrite = func() {
		ready.Done()
		select {
		case <-allIn:
		case <-time.After(5 * time.Second):
			t.Error("writers of one key waited behind each other's write")
		}
	}
	want := map[string]bool{}
	var wg sync.WaitGroup
	for i := range writers {
		b := snapshot.Seal(uint64(i), bytes.Repeat([]byte{byte(i)}, 64<<10*(i+1)))
		want[string(b)] = true
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.PutBlob(4, b); err != nil {
				t.Errorf("concurrent PutBlob: %v", err)
			}
		}()
	}
	wg.Wait()
	got, err := s.GetBlob(4)
	if err != nil || !want[string(got)] {
		t.Fatalf("concurrent writers of one key left no whole blob (%d bytes, %v)", len(got), err)
	}
	ents, err := os.ReadDir(filepath.Dir(s.BlobPath(4)))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("temporary file %s left behind", e.Name())
		}
	}
}

// TestSweepLifecycle drives one cell through the protocol by hand:
// submit, lease, heartbeat, report, status; then dedupe semantics on
// resubmission and cache hits across a coordinator restart.
func TestSweepLifecycle(t *testing.T) {
	dir := t.TempDir()
	_, srv := newTestFarm(t, dir, CoordinatorConfig{})
	cell := testCell("PVC", "Base", 0.02, 11)

	var sw SweepResponse
	if code := call(t, srv.URL+"/sweep", &SweepRequest{Cells: []Cell{cell}}, &sw); code != 200 {
		t.Fatalf("sweep: HTTP %d", code)
	}
	if sw.Accepted != 1 || sw.CacheHits != 0 || sw.Known != 0 {
		t.Fatalf("sweep response = %+v, want 1 accepted", sw)
	}

	lr := leaseOne(t, srv.URL, "w1")
	if lr.Attempt != 1 || lr.Cell == nil || lr.Cell.App != "PVC" || lr.Checkpoint {
		t.Fatalf("lease = %+v, want attempt 1 on PVC with no checkpoint", lr)
	}
	if code := call(t, srv.URL+"/heartbeat", &HeartbeatRequest{Lease: lr.Lease, Cycle: 10}, nil); code != 204 {
		t.Fatalf("heartbeat: HTTP %d", code)
	}
	res := &caba.Result{App: "PVC", Design: "Base", Cycles: 100, IPC: 2}
	if code := call(t, srv.URL+"/report", &ReportRequest{Lease: lr.Lease, Result: res}, nil); code != 204 {
		t.Fatalf("report: HTTP %d", code)
	}

	st := getStatus(t, srv.URL, "")
	if st.Done != 1 || !st.Drained || st.CacheHits != 0 {
		t.Fatalf("status = %+v, want 1 done, drained", st)
	}
	key, _ := cell.Key()
	if got := st.Results[KeyString(key)]; got == nil || got.Cycles != 100 {
		t.Fatalf("stored result = %+v", got)
	}
	if hist := st.Attempts[KeyString(key)]; len(hist) != 1 || hist[0].Outcome != "ok" {
		t.Fatalf("attempt history = %+v, want one ok", hist)
	}

	// Same session, same cell again: already known in memory.
	if call(t, srv.URL+"/sweep", &SweepRequest{Cells: []Cell{cell}}, &sw); sw.Known != 1 {
		t.Fatalf("resubmit = %+v, want known", sw)
	}

	// An idle lease poll reports the sweep drained.
	var empty LeaseResponse
	call(t, srv.URL+"/lease", &LeaseRequest{Worker: "w1"}, &empty)
	if empty.Lease != "" || !empty.Drained {
		t.Fatalf("lease on drained sweep = %+v", empty)
	}

	// Restart over the same directory: the journaled cell is served from
	// the content-addressed store — a cache hit, no re-simulation.
	_, srv2 := newTestFarm(t, dir, CoordinatorConfig{})
	st2 := getStatus(t, srv2.URL, "")
	if st2.Done != 1 || st2.CacheHits != 1 || !st2.Drained {
		t.Fatalf("restarted status = %+v, want 1 done via cache", st2)
	}
	if call(t, srv2.URL+"/sweep", &SweepRequest{Cells: []Cell{cell}}, &sw); sw.CacheHits != 1 || sw.Accepted != 0 {
		t.Fatalf("resubmit after restart = %+v, want a cache hit", sw)
	}
}

// TestSweepRejectsInvalidCell: a cell whose config fails validation is
// rejected with 400 before touching the queue.
func TestSweepRejectsInvalidCell(t *testing.T) {
	_, srv := newTestFarm(t, t.TempDir(), CoordinatorConfig{})
	cell := testCell("PVC", "Base", 0.02, 1)
	cell.Config.Scale = -1
	if code := call(t, srv.URL+"/sweep", &SweepRequest{Cells: []Cell{cell}}, nil); code != 400 {
		t.Fatalf("sweep with invalid config: HTTP %d, want 400", code)
	}
}

// TestLeaseExpiryRequeues: a worker that stops heartbeating loses the
// cell — it re-queues as attempt 2 and every late call quoting the stale
// token is rejected with 409 and mutates nothing.
func TestLeaseExpiryRequeues(t *testing.T) {
	_, srv := newTestFarm(t, t.TempDir(), CoordinatorConfig{
		LeaseTTL: 40 * time.Millisecond, RetryBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
	})
	cell := testCell("PVC", "Base", 0.02, 11)
	call(t, srv.URL+"/sweep", &SweepRequest{Cells: []Cell{cell}}, nil)

	stale := leaseOne(t, srv.URL, "dead-worker")
	// Let the lease expire (janitor tick = TTL/4).
	time.Sleep(100 * time.Millisecond)

	release := leaseOne(t, srv.URL, "live-worker")
	if release.Attempt != 2 {
		t.Fatalf("re-lease attempt = %d, want 2 (expiry charged)", release.Attempt)
	}
	if stale.Lease == release.Lease {
		t.Fatal("stale token re-issued")
	}

	// The presumed-dead worker comes back: everything it says is refused.
	if code := call(t, srv.URL+"/heartbeat", &HeartbeatRequest{Lease: stale.Lease}, nil); code != 409 {
		t.Errorf("stale heartbeat: HTTP %d, want 409", code)
	}
	zombie := &caba.Result{App: "PVC", Design: "Base", Cycles: 1, IPC: 1}
	if code := call(t, srv.URL+"/report", &ReportRequest{Lease: stale.Lease, Result: zombie}, nil); code != 409 {
		t.Errorf("stale report: HTTP %d, want 409", code)
	}
	st := getStatus(t, srv.URL, "?results=0")
	if st.Done != 0 || st.Leased != 1 {
		t.Fatalf("status after stale report = %+v, want the cell still leased", st)
	}
	key, _ := cell.Key()
	hist := st.Attempts[KeyString(key)]
	if len(hist) == 0 || hist[0].Outcome != "expired" {
		t.Fatalf("attempt history = %+v, want a leading expiry", hist)
	}
}

// TestTransientRetryAndAttemptCap: transient failures re-queue with
// backoff until the cap, then fail permanently — and the terminal record
// survives a coordinator restart as a cache hit.
func TestTransientRetryAndAttemptCap(t *testing.T) {
	dir := t.TempDir()
	c, srv := newTestFarm(t, dir, CoordinatorConfig{
		MaxAttempts: 2, RetryBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
	})
	cell := testCell("SCP", "CABA-BDI", 0.02, 5)
	call(t, srv.URL+"/sweep", &SweepRequest{Cells: []Cell{cell}}, nil)

	lr := leaseOne(t, srv.URL, "w1")
	call(t, srv.URL+"/report", &ReportRequest{Lease: lr.Lease, Error: "synthetic transient"}, nil)
	st := getStatus(t, srv.URL, "?results=0")
	if st.Pending != 1 || st.Failed != 0 {
		t.Fatalf("after first failure: %+v, want the cell pending again", st)
	}

	lr = leaseOne(t, srv.URL, "w2")
	if lr.Attempt != 2 {
		t.Fatalf("attempt = %d, want 2", lr.Attempt)
	}
	call(t, srv.URL+"/report", &ReportRequest{Lease: lr.Lease, Error: "synthetic transient"}, nil)
	st = getStatus(t, srv.URL, "?results=0")
	if st.Failed != 1 || !st.Drained {
		t.Fatalf("after cap: %+v, want terminal failure", st)
	}
	f := st.Failures[0]
	if f.Wedge || f.Attempts != 2 || !strings.Contains(f.Error, "attempt cap 2 reached") {
		t.Fatalf("failure = %+v", f)
	}

	// The terminal outcome is durable: a restarted coordinator serves it
	// from the store instead of re-queuing the cell.
	key, _ := cell.Key()
	if _, _, _, ok := c.Store().GetFailure(key); !ok {
		t.Fatal("terminal failure not persisted")
	}
	_, srv2 := newTestFarm(t, dir, CoordinatorConfig{})
	st2 := getStatus(t, srv2.URL, "?results=0")
	if st2.Failed != 1 || st2.Pending != 0 || st2.CacheHits != 1 {
		t.Fatalf("restarted status = %+v, want the failure served from the store", st2)
	}
}

// TestWedgeFailsFast: a deterministic wedge fails the cell on attempt 1
// with its retry budget unspent, and is recorded durably.
func TestWedgeFailsFast(t *testing.T) {
	c, srv := newTestFarm(t, t.TempDir(), CoordinatorConfig{MaxAttempts: 4})
	cell := testCell("PVC", "Base", 0.02, 7)
	call(t, srv.URL+"/sweep", &SweepRequest{Cells: []Cell{cell}}, nil)

	lr := leaseOne(t, srv.URL, "w1")
	call(t, srv.URL+"/report", &ReportRequest{Lease: lr.Lease, Error: "caba: PVC/Base: warps wedged", Wedge: true}, nil)

	st := getStatus(t, srv.URL, "?results=0")
	if st.Failed != 1 || st.Pending != 0 || !st.Drained {
		t.Fatalf("status = %+v, want immediate terminal failure", st)
	}
	f := st.Failures[0]
	if !f.Wedge || f.Attempts != 1 {
		t.Fatalf("failure = %+v, want wedge on attempt 1", f)
	}
	key, _ := cell.Key()
	if _, wedge, _, ok := c.Store().GetFailure(key); !ok || !wedge {
		t.Fatal("wedge not persisted to the failure store")
	}
	hist := getStatus(t, srv.URL, "?results=0").Attempts[KeyString(key)]
	if len(hist) != 1 || hist[0].Outcome != "wedged" {
		t.Fatalf("history = %+v, want exactly one wedged attempt", hist)
	}
}

// TestReleasedRequeuesWithoutCharge: a draining worker's release puts the
// cell straight back in the queue — no backoff, no attempt charged.
func TestReleasedRequeuesWithoutCharge(t *testing.T) {
	_, srv := newTestFarm(t, t.TempDir(), CoordinatorConfig{RetryBackoff: time.Hour})
	cell := testCell("PVC", "CABA-BDI", 0.02, 3)
	call(t, srv.URL+"/sweep", &SweepRequest{Cells: []Cell{cell}}, nil)

	lr := leaseOne(t, srv.URL, "draining")
	call(t, srv.URL+"/report", &ReportRequest{Lease: lr.Lease, Released: true}, nil)

	// RetryBackoff is an hour: only an uncharged immediate re-queue can
	// grant this lease now.
	lr2 := leaseOne(t, srv.URL, "fresh")
	if lr2.Attempt != 1 {
		t.Fatalf("attempt after release = %d, want 1 (no charge)", lr2.Attempt)
	}
}

// TestCheckpointBlobFlow: a leased worker uploads checkpoints (corrupt
// uploads rejected), a successor fetches the latest blob, and completion
// clears it.
func TestCheckpointBlobFlow(t *testing.T) {
	c, srv := newTestFarm(t, t.TempDir(), CoordinatorConfig{
		LeaseTTL: 40 * time.Millisecond, RetryBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
	})
	cell := testCell("SCP", "Base", 0.02, 9)
	call(t, srv.URL+"/sweep", &SweepRequest{Cells: []Cell{cell}}, nil)
	lr := leaseOne(t, srv.URL, "w1")

	post := func(lease string, blob []byte) int {
		resp, err := http.Post(srv.URL+"/checkpoint?lease="+lease, "application/octet-stream", strings.NewReader(string(blob)))
		if err != nil {
			t.Fatalf("upload: %v", err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(lr.Lease, []byte("garbage")); code != 400 {
		t.Fatalf("corrupt blob upload: HTTP %d, want 400", code)
	}
	blob := snapshot.Seal(1, []byte("state@cycle-1000"))
	if code := post(lr.Lease, blob); code != 204 {
		t.Fatalf("blob upload: HTTP %d", code)
	}

	// Let the lease lapse; the successor is offered the checkpoint.
	time.Sleep(100 * time.Millisecond)
	if code := post(lr.Lease, blob); code != 409 {
		t.Fatalf("stale blob upload: HTTP %d, want 409", code)
	}
	lr2 := leaseOne(t, srv.URL, "w2")
	if !lr2.Checkpoint {
		t.Fatal("successor lease not offered the checkpoint blob")
	}
	resp, err := http.Get(srv.URL + "/checkpoint?lease=" + lr2.Lease)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fetched, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 || string(fetched) != string(blob) {
		t.Fatalf("checkpoint fetch: HTTP %d, %d bytes", resp.StatusCode, len(fetched))
	}

	// Completion clears the blob.
	res := &caba.Result{App: "SCP", Design: "Base", Cycles: 2722, IPC: 1}
	call(t, srv.URL+"/report", &ReportRequest{Lease: lr2.Lease, Result: res, ResumeCycle: 1000}, nil)
	key, _ := cell.Key()
	if c.Store().HasBlob(key) {
		t.Error("checkpoint blob survived completion")
	}
	hist := getStatus(t, srv.URL, "?results=0").Attempts[KeyString(key)]
	last := hist[len(hist)-1]
	if last.Outcome != "ok" || last.ResumeCycle != 1000 {
		t.Fatalf("final attempt = %+v, want ok resumed from 1000", last)
	}
}

// TestTornJournalReplay: a journal whose final line was torn mid-append
// replays every intact line and drops only the tail.
func TestTornJournalReplay(t *testing.T) {
	dir := t.TempDir()
	cell := testCell("PVC", "Base", 0.02, 11)
	key, _ := cell.Key()
	line, _ := json.Marshal(journalLine{Key: KeyString(key), Cell: &cell})
	raw := append(append([]byte{}, line...), '\n')
	raw = append(raw, []byte(`{"key":"deadbeef","cell":{"app":"SC`)...) // torn tail
	if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, srv := newTestFarm(t, dir, CoordinatorConfig{})
	st := getStatus(t, srv.URL, "?results=0")
	if st.Pending != 1 || st.Done != 0 {
		t.Fatalf("status = %+v, want the intact cell pending and the torn tail dropped", st)
	}
}

// TestProgressStream: the JSONL progress endpoint streams lifecycle
// events live.
func TestProgressStream(t *testing.T) {
	_, srv := newTestFarm(t, t.TempDir(), CoordinatorConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/progress", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET /progress: %v", err)
	}
	defer resp.Body.Close()
	events := make(chan ProgressEvent, 64)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var ev ProgressEvent
			if json.Unmarshal(sc.Bytes(), &ev) == nil {
				events <- ev
			}
		}
		close(events)
	}()

	cell := testCell("PVC", "Base", 0.02, 11)
	call(t, srv.URL+"/sweep", &SweepRequest{Cells: []Cell{cell}}, nil)
	lr := leaseOne(t, srv.URL, "w1")
	res := &caba.Result{App: "PVC", Design: "Base", Cycles: 10, IPC: 1}
	call(t, srv.URL+"/report", &ReportRequest{Lease: lr.Lease, Result: res}, nil)

	want := map[string]bool{"queued": false, "lease": false, "done": false}
	deadline := time.After(5 * time.Second)
	for {
		allSeen := true
		for _, seen := range want {
			allSeen = allSeen && seen
		}
		if allSeen {
			return
		}
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatal("progress stream closed early")
			}
			if _, tracked := want[ev.Type]; tracked {
				want[ev.Type] = true
			}
		case <-deadline:
			t.Fatalf("progress events missing: %+v", want)
		}
	}
}
