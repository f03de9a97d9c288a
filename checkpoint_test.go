package caba_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	caba "github.com/caba-sim/caba"
	"github.com/caba-sim/caba/internal/snapshot"
)

func checkpointConfig() caba.Config {
	cfg := caba.QuickConfig()
	// Enough simulated cycles after the first snapshot that the watcher's
	// cancel reliably lands mid-run, not after completion.
	cfg.Scale = 0.05
	cfg.CheckpointEvery = 2_000
	cfg.FlightRecorderDepth = 32
	return cfg
}

// TestRunCheckpointedResumesMidRun: a checkpointed run interrupted
// mid-flight leaves a snapshot and a crash report behind; invoking it
// again resumes from the snapshot and converges to the bit-identical
// result of an uninterrupted run, then cleans both files up.
func TestRunCheckpointedResumesMidRun(t *testing.T) {
	cfg := checkpointConfig()
	straight, err := caba.Run(cfg, caba.CABABDI, "PVC", 1)
	if err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "cell.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	defer close(done)
	// Interrupt as soon as the first periodic snapshot lands on disk, so
	// the second invocation genuinely resumes mid-run.
	go func() {
		for {
			if _, err := os.Stat(ckpt); err == nil {
				cancel()
				return
			}
			select {
			case <-done:
				return
			case <-time.After(200 * time.Microsecond):
			}
		}
	}()
	res, err := caba.RunCheckpointed(ctx, cfg, caba.CABABDI, "PVC", 1, ckpt)
	if err == nil {
		// The run outpaced the watcher; the equivalence claim still holds.
		t.Log("run completed before the interrupt landed")
	} else {
		if !errors.Is(err, caba.ErrInterrupted) {
			t.Fatalf("interrupted run: %v, want ErrInterrupted", err)
		}
		if _, serr := os.Stat(ckpt); serr != nil {
			t.Fatalf("interrupted run must keep its snapshot: %v", serr)
		}
		crash, rerr := os.ReadFile(ckpt + ".crash")
		if rerr != nil {
			t.Fatalf("interrupted run must write a crash report: %v", rerr)
		}
		for _, want := range []string{"repro:", "error:", "app=PVC", "flight record"} {
			if !strings.Contains(string(crash), want) {
				t.Errorf("crash report missing %q:\n%s", want, crash)
			}
		}
		res, err = caba.RunCheckpointed(context.Background(), cfg, caba.CABABDI, "PVC", 1, ckpt)
		if err != nil {
			t.Fatalf("resume: %v", err)
		}
	}
	if res.Cycles != straight.Cycles || res.IPC != straight.IPC {
		t.Errorf("resumed run: %d cycles IPC %v, straight run: %d cycles IPC %v",
			res.Cycles, res.IPC, straight.Cycles, straight.IPC)
	}
	if !reflect.DeepEqual(res.Stats, straight.Stats) {
		t.Error("resumed run statistics differ from the uninterrupted run")
	}
	if _, err := os.Stat(ckpt); !errors.Is(err, os.ErrNotExist) {
		t.Error("snapshot not removed after a successful run")
	}
	if _, err := os.Stat(ckpt + ".crash"); !errors.Is(err, os.ErrNotExist) {
		t.Error("crash report not removed after a successful run")
	}
}

// TestRunCheckpointedToleratesCorruptSnapshot: a resume file that does not
// decode (torn write, foreign blob) must not brick the cell — the run
// drops it and starts from cycle zero, still producing the exact
// uninterrupted-run result.
func TestRunCheckpointedToleratesCorruptSnapshot(t *testing.T) {
	cfg := checkpointConfig()
	cfg.Scale = 0.01
	straight, err := caba.Run(cfg, caba.Base, "PVC", 1)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "cell.ckpt")
	if err := os.WriteFile(ckpt, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := caba.RunCheckpointed(context.Background(), cfg, caba.Base, "PVC", 1, ckpt)
	if err != nil {
		t.Fatalf("run with corrupt snapshot: %v", err)
	}
	if res.Cycles != straight.Cycles || !reflect.DeepEqual(res.Stats, straight.Stats) {
		t.Error("run after dropping a corrupt snapshot differs from a clean run")
	}
}

// TestRejectedResumeStartsFresh: a resume blob whose container verifies
// (checksum, version, configuration hash) but whose payload the decoder
// rejects has already been partly decoded into the prepared simulator.
// Both entry points must then run a fresh simulator from cycle zero and
// return the uninterrupted result, not spin a half-restored machine to
// the cycle cap.
func TestRejectedResumeStartsFresh(t *testing.T) {
	cfg := caba.Baseline()
	cfg.Scale = 0.03
	cfg.CheckpointEvery = 1_000
	straight, err := caba.Run(cfg, caba.CABABDI, "PVC", 1)
	if err != nil {
		t.Fatal(err)
	}
	var mid []byte
	if _, _, err := caba.RunResumable(context.Background(), cfg, caba.CABABDI, "PVC", 1, nil,
		func(cycle uint64, blob []byte) error {
			if mid == nil && cycle >= straight.Cycles/2 {
				mid = blob
			}
			return nil
		}); err != nil {
		t.Fatal(err)
	}
	if mid == nil {
		t.Fatal("no mid-run checkpoint")
	}
	// Re-seal the payload with one trailing byte: the container verifies,
	// the decoder rejects it only after decoding the whole machine.
	hash, payload, err := snapshot.Inspect(mid)
	if err != nil {
		t.Fatal(err)
	}
	bad := snapshot.Seal(hash, append(payload[:len(payload):len(payload)], 0))

	same := func(what string, res *caba.Result) {
		t.Helper()
		if res.Cycles != straight.Cycles || !reflect.DeepEqual(res.Stats, straight.Stats) {
			t.Errorf("%s: %d cycles, want the uninterrupted run's %d and its statistics", what, res.Cycles, straight.Cycles)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, resumedAt, err := caba.RunResumable(ctx, cfg, caba.CABABDI, "PVC", 1, bad, nil)
	if err != nil {
		t.Fatalf("RunResumable: %v", err)
	}
	if resumedAt != 0 {
		t.Errorf("resumedAt = %d, want 0 for a rejected blob", resumedAt)
	}
	same("RunResumable", res)

	ckpt := filepath.Join(t.TempDir(), "cell.ckpt")
	if err := os.WriteFile(ckpt, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if res, err = caba.RunCheckpointed(ctx, cfg, caba.CABABDI, "PVC", 1, ckpt); err != nil {
		t.Fatalf("RunCheckpointed: %v", err)
	}
	same("RunCheckpointed", res)
}
