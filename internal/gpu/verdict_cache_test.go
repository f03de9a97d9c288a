package gpu

import (
	"reflect"
	"testing"
)

// TestVerdictCachesAcrossSnapshot is the scheduler verdict caches'
// snapshot contract, pinned directly rather than only through whole-run
// equivalence: a mid-run LoadState resets every warp's depStalled/idle
// verdict to the conservative false (the caches are pure — recomputed on
// the next scheduler probe, never serialized) and arms every SM's retry
// scan (SM.retryArmed, likewise not serialized), the verdicts the resumed
// run rebuilds are always consistent with architected state (depStalled
// only while the scoreboard conflicts with the current instruction, idle
// only while there is no current instruction), and the resumed run
// finishes bit-identical to the uninterrupted run.
func TestVerdictCachesAcrossSnapshot(t *testing.T) {
	const maxCycles = 20_000_000
	c := snapMatrixCase{name: "w1-clean", workers: 1}

	straight := newSnapSim(t, c, true)
	if err := straight.Run(maxCycles); err != nil {
		t.Fatal(err)
	}
	total := straight.Cycles()
	if total == 0 {
		t.Fatal("straight run recorded no cycles")
	}

	// Capture one blob near the middle of the run, where warps hold a
	// mix of live verdicts (dep-stalled on in-flight results, idle at
	// barriers or done).
	donor := newSnapSim(t, c, true)
	donor.Cfg.CheckpointEvery = total / 2
	var blob []byte
	var at uint64
	donor.OnCheckpoint = func(cycle uint64, b []byte) error {
		if blob == nil {
			blob = append([]byte(nil), b...)
			at = cycle
		}
		return nil
	}
	if err := donor.Run(maxCycles); err != nil {
		t.Fatal(err)
	}
	if blob == nil {
		t.Fatal("no checkpoint captured")
	}

	resumed := newSnapSim(t, c, false)
	if err := resumed.LoadState(blob); err != nil {
		t.Fatalf("restore at cycle %d: %v", at, err)
	}
	// Conservative-reset contract: no verdict survives the load, and
	// every queued trigger is rescanned on the first tick.
	for _, sm := range resumed.sms {
		if !sm.retryArmed {
			t.Fatalf("SM %d retry scan not armed straight out of LoadState", sm.id)
		}
		for _, w := range sm.warps {
			if w.valid && (w.depStalled || w.idle) {
				t.Fatalf("warp %d/%d holds a verdict (dep=%v idle=%v) straight out of LoadState",
					sm.id, w.id, w.depStalled, w.idle)
			}
		}
	}
	// Rebuilt-verdict consistency, audited at every checkpoint
	// boundary of the resumed run: a cached true verdict must match
	// what a fresh probe of architected state would conclude.
	audited := 0
	resumed.Cfg.CheckpointEvery = total / 16
	if resumed.Cfg.CheckpointEvery == 0 {
		resumed.Cfg.CheckpointEvery = 1
	}
	resumed.OnCheckpoint = func(cycle uint64, b []byte) error {
		for _, sm := range resumed.sms {
			for _, w := range sm.warps {
				if !w.valid {
					continue
				}
				if w.depStalled {
					audited++
					in := w.exec.CurrentSop()
					if in == nil || !w.sb.ConflictsSop(in) {
						t.Errorf("cycle %d: warp %d/%d depStalled with no scoreboard conflict",
							cycle, sm.id, w.id)
					}
				}
				if w.idle {
					audited++
					if w.exec.CurrentSop() != nil {
						t.Errorf("cycle %d: warp %d/%d idle with a current instruction",
							cycle, sm.id, w.id)
					}
				}
			}
		}
		return nil
	}
	if err := resumed.Run(maxCycles); err != nil {
		t.Fatalf("resume at cycle %d: %v", at, err)
	}
	if audited == 0 {
		t.Error("audit hook saw no live verdicts (test lost its teeth)")
	}
	if resumed.Cycles() != total {
		t.Errorf("finished at cycle %d, straight run at %d", resumed.Cycles(), total)
	}
	if !reflect.DeepEqual(straight.S, resumed.S) {
		t.Error("stats diverged from the uninterrupted run")
	}
	if outChecksum(straight) != outChecksum(resumed) {
		t.Error("output memory diverged")
	}
}
