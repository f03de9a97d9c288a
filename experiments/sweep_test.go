package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	caba "github.com/caba-sim/caba"
	"github.com/caba-sim/caba/internal/farm"
)

// fakeResult builds a minimal distinguishable Result for hook-driven
// sweep tests.
func fakeResult(app, design string) *caba.Result {
	return &caba.Result{App: app, Design: design, Cycles: 1, IPC: float64(len(app) + len(design)), Stats: &caba.Metrics{}}
}

// TestSweepPartialResults: one broken cell must not wipe out the
// completed cells — sweep returns both the survivors and a joined error
// naming the failure.
func TestSweepPartialResults(t *testing.T) {
	o := Options{Scale: 0.01, Seed: 1, Parallel: 2, Out: io.Discard}
	o.runHook = func(_ context.Context, _ caba.Config, design caba.Design, app string, _ int64) (*caba.Result, error) {
		if app == "PVC" && design.Name == caba.CABABDI.Name {
			return nil, fmt.Errorf("synthetic cell failure")
		}
		return fakeResult(app, design.Name), nil
	}
	res, err := o.sweep([]string{"PVC", "SCP"}, []caba.Design{caba.Base, caba.CABABDI}, nil)
	if err == nil || !strings.Contains(err.Error(), "synthetic cell failure") {
		t.Fatalf("err = %v, want the broken cell's failure", err)
	}
	if !strings.Contains(err.Error(), "PVC/CABA-BDI@1x") {
		t.Errorf("err = %v, want it to name the failed cell", err)
	}
	if len(res) != 3 {
		t.Fatalf("partial results = %d cells, want the 3 that succeeded", len(res))
	}
	if res[runKey{"PVC", caba.CABABDI.Name, 1}] != nil {
		t.Error("failed cell must be absent from results")
	}
}

// TestSweepPanicRecovery: a panicking run is contained to its cell; the
// worker pool survives and the panic surfaces as that cell's error.
func TestSweepPanicRecovery(t *testing.T) {
	o := Options{Scale: 0.01, Seed: 1, Parallel: 1, Out: io.Discard}
	o.runHook = func(_ context.Context, _ caba.Config, _ caba.Design, app string, _ int64) (*caba.Result, error) {
		if app == "PVC" {
			panic("synthetic run panic")
		}
		return fakeResult(app, "Base"), nil
	}
	res, err := o.sweep([]string{"PVC", "SCP", "IIX"}, []caba.Design{caba.Base}, nil)
	if err == nil || !strings.Contains(err.Error(), "synthetic run panic") {
		t.Fatalf("err = %v, want the recovered panic", err)
	}
	if len(res) != 2 {
		t.Fatalf("results = %d cells, want the 2 non-panicking ones", len(res))
	}
}

// TestSweepTimeout: RunTimeout cancels the per-run context; a run that
// honors it errors out while fast runs complete.
func TestSweepTimeout(t *testing.T) {
	o := Options{Scale: 0.01, Seed: 1, Parallel: 2, Out: io.Discard,
		RunTimeout: 10 * time.Millisecond}
	o.runHook = func(ctx context.Context, _ caba.Config, _ caba.Design, app string, _ int64) (*caba.Result, error) {
		if app == "PVC" {
			<-ctx.Done()
			return nil, fmt.Errorf("run aborted: %w", ctx.Err())
		}
		if _, ok := ctx.Deadline(); !ok {
			return nil, fmt.Errorf("missing deadline")
		}
		return fakeResult(app, "Base"), nil
	}
	res, err := o.sweep([]string{"PVC", "SCP"}, []caba.Design{caba.Base}, nil)
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if len(res) != 1 {
		t.Fatalf("results = %d, want the fast cell only", len(res))
	}
}

// TestSweepRetry: a transiently failing run succeeds within the retry
// budget and does not surface an error.
func TestSweepRetry(t *testing.T) {
	var calls atomic.Int64
	o := Options{Scale: 0.01, Seed: 1, Parallel: 1, Out: io.Discard,
		Retries: 2, RetryBackoff: time.Millisecond}
	o.runHook = func(_ context.Context, _ caba.Config, _ caba.Design, app string, _ int64) (*caba.Result, error) {
		if calls.Add(1) <= 2 {
			return nil, fmt.Errorf("transient failure %d", calls.Load())
		}
		return fakeResult(app, "Base"), nil
	}
	res, err := o.sweep([]string{"PVC"}, []caba.Design{caba.Base}, nil)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if len(res) != 1 || calls.Load() != 3 {
		t.Fatalf("results = %d, calls = %d; want 1 result after 3 attempts", len(res), calls.Load())
	}
}

// TestSweepCheckpointResume: an interrupted sweep leaves its completed
// cells in the Checkpoint store; a second invocation re-runs only the
// missing cells and still returns the full grid. A store written at
// another scale holds other cell keys, so it serves nothing.
func TestSweepCheckpointResume(t *testing.T) {
	ckDir := t.TempDir()
	apps := []string{"PVC", "SCP", "IIX"}
	designs := []caba.Design{caba.Base, caba.CABABDI}

	// First pass: one cell fails, the rest land in the store.
	o := Options{Scale: 0.01, Seed: 7, Parallel: 1, Out: io.Discard, Checkpoint: ckDir}
	o.runHook = func(_ context.Context, _ caba.Config, design caba.Design, app string, _ int64) (*caba.Result, error) {
		if app == "IIX" && design.Name == caba.CABABDI.Name {
			return nil, fmt.Errorf("first-pass failure")
		}
		return fakeResult(app, design.Name), nil
	}
	res, err := o.sweep(apps, designs, nil)
	if err == nil || len(res) != 5 {
		t.Fatalf("first pass: err=%v results=%d, want 1 failure and 5 cells", err, len(res))
	}

	// Second pass: only the missing cell may run.
	var reruns []string
	o.runHook = func(_ context.Context, _ caba.Config, design caba.Design, app string, _ int64) (*caba.Result, error) {
		reruns = append(reruns, app+"/"+design.Name)
		return fakeResult(app, design.Name), nil
	}
	res, err = o.sweep(apps, designs, nil)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if len(res) != 6 {
		t.Fatalf("resume results = %d, want the full grid", len(res))
	}
	if len(reruns) != 1 || reruns[0] != "IIX/CABA-BDI" {
		t.Fatalf("resume reran %v, want only the missing cell", reruns)
	}
	for _, app := range apps {
		for _, d := range designs {
			r := res[runKey{app, d.Name, 1}]
			if r == nil || r.App != app || r.Design != d.Name {
				t.Fatalf("cell %s/%s missing or mislabeled after resume: %+v", app, d.Name, r)
			}
		}
	}

	// The same store at another scale: no cell matches, every cell runs.
	reruns = nil
	other := Options{Scale: 0.02, Seed: 7, Parallel: 1, Out: io.Discard, Checkpoint: ckDir}
	other.runHook = o.runHook
	res, err = other.sweep(apps, designs, nil)
	if err != nil {
		t.Fatalf("sweep at another scale: %v", err)
	}
	if len(res) != 6 || len(reruns) != 6 {
		t.Fatalf("sweep at another scale: %d cells, %d runs; want the full grid simulated afresh", len(res), len(reruns))
	}
}

// TestSweepRefusesOldCheckpointFile: a Checkpoint path naming a regular
// file, such as a JSONL checkpoint written before sweeps used the result
// store, is an error naming the path, and the file keeps its bytes.
func TestSweepRefusesOldCheckpointFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.ckpt")
	old := []byte(`{"meta":{"scale":0.01,"seed":1}}` + "\n" +
		`{"key":"PVC/Base@1x","result":{"App":"PVC","Design":"Base","Cycles":1}}` + "\n")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	o := Options{Scale: 0.01, Seed: 1, Parallel: 1, Out: io.Discard, Checkpoint: path}
	o.runHook = func(_ context.Context, _ caba.Config, design caba.Design, app string, _ int64) (*caba.Result, error) {
		ran.Add(1)
		return fakeResult(app, design.Name), nil
	}
	if _, err := o.sweep([]string{"PVC", "SCP"}, []caba.Design{caba.Base}, nil); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("err = %v, want a refusal naming %s", err, path)
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("%d cells ran against a refused checkpoint, want 0", n)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, old) {
		t.Errorf("old checkpoint file changed (err %v):\n%s", err, got)
	}
}

// TestSweepSimulatesEachCellOnce: figures run from copies of one
// Defaults() Options share their cells, so across Figures 1 and 7–13
// every distinct cell key reaches the simulator exactly once. The same
// figures over a fresh Checkpoint store simulate each cell once again;
// over the filled store they simulate nothing. Every pass prints the
// same figures.
func TestSweepSimulatesEachCellOnce(t *testing.T) {
	figures := []func(Options) error{
		func(o Options) error { _, err := Fig1(o); return err },
		func(o Options) error { _, err := Fig7(o); return err },
		func(o Options) error { _, err := Fig8(o); return err },
		func(o Options) error { _, err := Fig9(o); return err },
		func(o Options) error { _, err := Fig10and11(o); return err },
		func(o Options) error { _, err := Fig12(o); return err },
		func(o Options) error { _, err := Fig13(o); return err },
	}
	pass := func(checkpoint string) (string, map[uint64]int) {
		var buf bytes.Buffer
		o := Defaults(&buf)
		o.Scale, o.Checkpoint = 0.01, checkpoint
		var mu sync.Mutex
		calls := map[uint64]int{}
		o.runHook = func(_ context.Context, cfg caba.Config, design caba.Design, app string, seed int64) (*caba.Result, error) {
			id, err := farm.Cell{App: app, Seed: seed, Config: cfg, Design: design}.Key()
			if err != nil {
				return nil, err
			}
			mu.Lock()
			calls[id]++
			mu.Unlock()
			return fakeResult(app, design.Name), nil
		}
		for _, fig := range figures {
			if err := fig(o); err != nil {
				t.Fatal(err)
			}
		}
		return buf.String(), calls
	}

	want, calls := pass("")
	t.Logf("%d distinct cells", len(calls))
	for id, n := range calls {
		if n != 1 {
			t.Errorf("cell %s simulated %d times, want once", farm.KeyString(id), n)
		}
	}
	dir := t.TempDir()
	for i, wantRuns := range []int{len(calls), 0} {
		out, got := pass(dir)
		runs := 0
		for _, n := range got {
			runs += n
		}
		if runs != wantRuns {
			t.Errorf("store pass %d simulated %d cells, want %d", i+1, runs, wantRuns)
		}
		if out != want {
			t.Errorf("store pass %d printed other figures than the in-memory pass", i+1)
		}
	}
}
