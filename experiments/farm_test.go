package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	caba "github.com/caba-sim/caba"
	"github.com/caba-sim/caba/internal/farm"
)

// TestSweepContextCancel: cancelling the sweep's Context must stop
// dispatching promptly — not wait out each cell's RunTimeout — and
// return the completed cells with the cancellation joined into the
// error.
func TestSweepContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	release := make(chan struct{})
	o := Options{Scale: 0.01, Seed: 1, Parallel: 1, Out: io.Discard,
		Context: ctx,
		// A long RunTimeout that a prompt cancellation must NOT sit out.
		RunTimeout: time.Hour,
	}
	o.runHook = func(runCtx context.Context, _ caba.Config, _ caba.Design, app string, _ int64) (*caba.Result, error) {
		if started.Add(1) == 1 {
			close(release) // first cell is in flight: cancel now
			<-runCtx.Done()
			return nil, fmt.Errorf("run aborted: %w", runCtx.Err())
		}
		return fakeResult(app, "Base"), nil
	}
	go func() {
		<-release
		cancel()
	}()

	start := time.Now()
	res, err := o.sweep([]string{"PVC", "SCP", "IIX", "MUM"}, []caba.Design{caba.Base}, nil)
	elapsed := time.Since(start)

	if elapsed > 10*time.Second {
		t.Fatalf("cancelled sweep took %v — it waited out timeouts instead of stopping", elapsed)
	}
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ctx.Err() joined in", err)
	}
	if !strings.Contains(err.Error(), "sweep cancelled") {
		t.Errorf("err = %v, want it to say the sweep was cancelled", err)
	}
	// Parallel=1 and the first cell blocks until cancellation: no later
	// cell may have been dispatched after cancel.
	if got := started.Load(); got != 1 {
		t.Errorf("runs started = %d, want 1 (dispatch must stop on cancel)", got)
	}
	if len(res) != 0 {
		// No cell completed here; the map must reflect that, not hang.
		t.Errorf("results = %d cells, want 0", len(res))
	}
}

// TestSweepContextCancelPartialResults: cells completed before the
// cancellation survive in the returned map.
func TestSweepContextCancelPartialResults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int64
	o := Options{Scale: 0.01, Seed: 1, Parallel: 1, Out: io.Discard, Context: ctx}
	o.runHook = func(runCtx context.Context, _ caba.Config, _ caba.Design, app string, _ int64) (*caba.Result, error) {
		if done.Add(1) == 2 {
			cancel() // two cells done, then stop the world
		}
		return fakeResult(app, "Base"), nil
	}
	res, err := o.sweep([]string{"PVC", "SCP", "IIX", "MUM", "RAY"}, []caba.Design{caba.Base}, nil)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want cancellation", err)
	}
	if len(res) < 2 || len(res) >= 5 {
		t.Fatalf("results = %d cells, want the pre-cancel completions (>=2, <5)", len(res))
	}
}

// TestCheckpointTornResultRerun: a store entry torn after it was written
// (a half-copied store, bit rot) fails its seal check on read. The sweep
// quarantines it beside the entry, re-runs only that cell, serves the
// other cells from the store, and stores the re-run result afresh.
func TestCheckpointTornResultRerun(t *testing.T) {
	dir := t.TempDir()
	apps := []string{"PVC", "SCP", "IIX"}
	var ran []string
	o := Options{Scale: 0.01, Seed: 1, Parallel: 1, Out: io.Discard, Checkpoint: dir}
	o.runHook = func(_ context.Context, _ caba.Config, _ caba.Design, app string, _ int64) (*caba.Result, error) {
		ran = append(ran, app)
		return fakeResult(app, "Base"), nil
	}
	if _, err := o.sweep(apps, []caba.Design{caba.Base}, nil); err != nil {
		t.Fatalf("first sweep: %v", err)
	}

	// Tear one entry the way an interrupted copy does: keep its first half.
	c, err := o.gridCell("SCP", caba.Base, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "results", farm.KeyString(c.id)+".res")
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, intact[:len(intact)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	for pass, want := range [][]string{{"SCP"}, nil} {
		ran = nil
		res, err := o.sweep(apps, []caba.Design{caba.Base}, nil)
		if err != nil {
			t.Fatalf("sweep %d over the torn store: %v", pass+1, err)
		}
		if len(res) != 3 {
			t.Fatalf("sweep %d: results = %d cells, want 3", pass+1, len(res))
		}
		if !reflect.DeepEqual(ran, want) {
			t.Fatalf("sweep %d ran %v, want %v", pass+1, ran, want)
		}
	}
	if _, err := os.Stat(path + ".quarantine"); err != nil {
		t.Errorf("torn entry was not quarantined: %v", err)
	}
}

// TestFarmSweepEndToEnd: Options.FarmURL dispatches the sweep through a
// real coordinator + worker pair and produces results bit-identical to
// the in-process sweep, persisted to the local Checkpoint store too.
func TestFarmSweepEndToEnd(t *testing.T) {
	apps := []string{"PVC", "SCP"}
	designs := []caba.Design{caba.Base, caba.CABABDI}

	// In-process reference.
	ref := Options{Scale: 0.02, Seed: 11, Out: io.Discard}
	refRes, err := ref.sweep(apps, designs, nil)
	if err != nil {
		t.Fatalf("reference sweep: %v", err)
	}

	c, err := farm.NewCoordinator(farm.CoordinatorConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		farm.NewWorker(srv.URL, farm.WorkerConfig{
			Name: "e2e", PollInterval: 10 * time.Millisecond, ExitWhenDrained: true,
		}).Run(ctx)
	}()

	ckpt := t.TempDir()
	o := Options{Scale: 0.02, Seed: 11, Out: io.Discard, FarmURL: srv.URL, Checkpoint: ckpt}
	res, err := o.sweep(apps, designs, nil)
	if err != nil {
		t.Fatalf("farm sweep: %v", err)
	}
	<-workerDone

	if len(res) != len(refRes) {
		t.Fatalf("farm sweep returned %d cells, reference %d", len(res), len(refRes))
	}
	for key, want := range refRes {
		got := res[key]
		if got == nil {
			t.Errorf("%s: missing from farm sweep", key)
			continue
		}
		// Bit-identical: JSON round-trips Go floats exactly, so byte
		// equality of the marshalled results is value equality.
		wantRaw, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		gotRaw, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if string(gotRaw) != string(wantRaw) {
			t.Errorf("%s: farm result differs from in-process run", key)
		}
	}

	// The local store captured the farm results: a follow-up sweep is a
	// pure store read with no farm traffic at all.
	o2 := Options{Scale: 0.02, Seed: 11, Out: io.Discard, FarmURL: "http://127.0.0.1:1", Checkpoint: ckpt}
	res2, err := o2.sweep(apps, designs, nil)
	if err != nil {
		t.Fatalf("checkpointed farm sweep: %v", err)
	}
	if len(res2) != len(refRes) {
		t.Fatalf("checkpoint resume = %d cells, want %d", len(res2), len(refRes))
	}
}

// TestFarmClient429Retry: a submission that trips the coordinator's
// admission control (queue cap 1, two cells) is not an error — the
// client tells the user the farm is busy, waits out the Retry-After
// hint, and resubmits the identical request until everything is
// admitted; content-address idempotence makes the replay safe. The
// sweep still ends complete and correct.
func TestFarmClient429Retry(t *testing.T) {
	c, err := farm.NewCoordinator(farm.CoordinatorConfig{
		Dir: t.TempDir(), MaxQueue: 1, LeaseTTL: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	// No ExitWhenDrained here: the queue drains between the 429 and the
	// client's resubmission (that is the point of the test), and the
	// worker must still be around for the second cell.
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		farm.NewWorker(srv.URL, farm.WorkerConfig{
			Name: "c429", PollInterval: 5 * time.Millisecond,
		}).Run(ctx)
	}()

	var buf strings.Builder
	o := Options{Scale: 0.02, Seed: 11, Out: &buf, FarmURL: srv.URL}
	res, err := o.sweep([]string{"PVC", "SCP"}, []caba.Design{caba.Base}, nil)
	cancel()
	if err != nil {
		t.Fatalf("farm sweep through admission control: %v\noutput:\n%s", err, buf.String())
	}
	<-workerDone
	if len(res) != 2 {
		t.Fatalf("results = %d cells, want 2", len(res))
	}
	if !strings.Contains(buf.String(), "coordinator is busy") {
		t.Errorf("client never reported the 429 backoff; output:\n%s", buf.String())
	}
}

// TestFarmClientConnRefusedRecovery: a connection-refused transport
// error means the coordinator is down or restarting — the client says
// so explicitly (it is a different situation from a 5xx) and keeps
// retrying on its doubling schedule until the listener comes back.
func TestFarmClientConnRefusedRecovery(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens here now: connection refused

	// Bring a server up on the same address shortly after the client's
	// first refused attempts.
	serverUp := make(chan error, 1)
	hsrv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{}"))
	})}
	defer hsrv.Close()
	go func() {
		time.Sleep(400 * time.Millisecond)
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			serverUp <- err
			return
		}
		serverUp <- nil
		hsrv.Serve(ln2)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var buf strings.Builder
	o := Options{Out: &buf}
	if err := o.farmCall(ctx, http.MethodGet, "http://"+addr+"/status", nil, nil); err != nil {
		if lerr := <-serverUp; lerr != nil {
			t.Skipf("could not re-bind reserved port %s: %v", addr, lerr)
		}
		t.Fatalf("farmCall never recovered: %v\noutput:\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "refused connection") {
		t.Errorf("client did not name the refused connection; output:\n%s", buf.String())
	}
}

// TestFarmClientDegradedWarning: when responses carry a non-ok
// X-Farm-Health header the client warns the user exactly once per
// sweep, not once per poll. A disk-headroom floor no volume meets keeps
// every response "degraded" for the whole sweep; a saturated queue alone
// does not, because the worker may finish the cell before the client's
// first status poll.
func TestFarmClientDegradedWarning(t *testing.T) {
	c, err := farm.NewCoordinator(farm.CoordinatorConfig{Dir: t.TempDir(), MaxQueue: 1, MinDiskFree: 1 << 62})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		farm.NewWorker(srv.URL, farm.WorkerConfig{
			Name: "cdeg", PollInterval: 5 * time.Millisecond, ExitWhenDrained: true,
		}).Run(ctx)
	}()

	var buf strings.Builder
	o := Options{Scale: 0.02, Seed: 11, Out: &buf, FarmURL: srv.URL}
	res, err := o.sweep([]string{"PVC"}, []caba.Design{caba.CABABDI}, nil)
	if err != nil {
		t.Fatalf("farm sweep: %v\noutput:\n%s", err, buf.String())
	}
	<-workerDone
	if len(res) != 1 {
		t.Fatalf("results = %d cells, want 1", len(res))
	}
	if n := strings.Count(buf.String(), "warning: coordinator reports"); n != 1 {
		t.Errorf("degraded warning printed %d times, want exactly once; output:\n%s", n, buf.String())
	}
}
