package experiments

import (
	"io"
	"os"
	"reflect"
	"testing"
	"time"

	caba "github.com/caba-sim/caba"
	"github.com/caba-sim/caba/internal/farm"
)

// TestSweepCellSnapshotResume drives the full mid-run resume path with
// real simulations: a sweep whose only cell is interrupted by a tiny
// deadline leaves a mid-run snapshot and a crash report at the store's
// blob path for that cell; rerunning the sweep resumes the cell from the
// snapshot and converges to the bit-identical result of a
// never-interrupted sweep, then removes both files.
func TestSweepCellSnapshotResume(t *testing.T) {
	apps := []string{"PVC"}
	designs := []caba.Design{caba.CABABDI}
	key := runKey{"PVC", caba.CABABDI.Name, 1}

	clean := Options{Scale: 0.02, Seed: 3, Parallel: 1, Out: io.Discard}
	want, err := clean.sweep(apps, designs, nil)
	if err != nil {
		t.Fatalf("clean sweep: %v", err)
	}

	ckDir := t.TempDir()
	first := Options{Scale: 0.02, Seed: 3, Parallel: 1, Out: io.Discard,
		Checkpoint: ckDir, CheckpointEvery: 500,
		RunTimeout: 20 * time.Millisecond}
	c, err := first.gridCell("PVC", caba.CABABDI, 1)
	if err != nil {
		t.Fatal(err)
	}
	store, err := farm.OpenStore(ckDir)
	if err != nil {
		t.Fatal(err)
	}
	snap := store.BlobPath(c.id)

	res, err := first.sweep(apps, designs, nil)
	interrupted := err != nil
	if interrupted {
		// Expected: the deadline interrupted the cell mid-run. Its
		// snapshot (if one was written before the interrupt) now waits
		// at the cell's blob path, its crash report beside it.
		t.Logf("first pass interrupted as intended: %v", err)
		if _, serr := os.Stat(snap); serr == nil {
			t.Logf("mid-run snapshot present at %s", snap)
		} else {
			t.Logf("interrupt landed before the first snapshot; resuming from scratch")
		}
		if _, serr := os.Stat(snap + ".crash"); serr != nil {
			t.Errorf("no crash report beside the cell snapshot: %v", serr)
		}
	} else {
		t.Logf("first pass outran the deadline (%d cells)", len(res))
	}

	second := Options{Scale: 0.02, Seed: 3, Parallel: 1, Out: io.Discard,
		Checkpoint: ckDir, CheckpointEvery: 500}
	res, err = second.sweep(apps, designs, nil)
	if err != nil {
		t.Fatalf("resume sweep: %v", err)
	}
	got := res[key]
	if got == nil {
		t.Fatal("resumed sweep is missing the cell")
	}
	ref := want[key]
	if got.Cycles != ref.Cycles || got.IPC != ref.IPC {
		t.Errorf("resumed cell: %d cycles IPC %v, clean cell: %d cycles IPC %v",
			got.Cycles, got.IPC, ref.Cycles, ref.IPC)
	}
	// Full statistics equality only applies on the genuine resume path;
	// when the first pass finished, the cell comes back from the store
	// instead of a live run.
	if interrupted && !reflect.DeepEqual(got.Stats, ref.Stats) {
		t.Error("resumed cell statistics differ from the clean sweep")
	}

	// The successful cell must have cleaned up its snapshot and report.
	for _, path := range []string{snap, snap + ".crash"} {
		if _, err := os.Stat(path); err == nil {
			t.Errorf("%s not removed after the cell succeeded", path)
		}
	}
}
