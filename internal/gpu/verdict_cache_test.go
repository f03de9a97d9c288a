package gpu

import (
	"math/bits"
	"reflect"
	"testing"
)

// TestVerdictCachesAcrossSnapshot is the issue scan's snapshot
// contract, pinned directly rather than only through whole-run
// equivalence: a mid-run LoadState restores the valid mask, clears every
// scan verdict (dep/idle/sfu) and cached memo key to the
// conservative nothing-known state (they are derived, never serialized)
// and arms every SM's retry scan (SM.retryArmed, likewise not
// serialized); the verdicts and GTO order the resumed run rebuilds pass
// Audit's issue-scan invariant at every checkpoint boundary; and the
// resumed run finishes bit-identical to the uninterrupted run.
func TestVerdictCachesAcrossSnapshot(t *testing.T) {
	const maxCycles = 20_000_000
	straight := newSnapSim(t, true)
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
	donor := newSnapSim(t, true)
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

	resumed := newSnapSim(t, false)
	if err := resumed.LoadState(blob); err != nil {
		t.Fatalf("restore at cycle %d: %v", at, err)
	}
	// Conservative-reset contract: no verdict survives the load, and
	// every queued trigger is rescanned on the first tick.
	for _, sm := range resumed.sms {
		if !sm.retryArmed {
			t.Fatalf("SM %d retry scan not armed straight out of LoadState", sm.id)
		}
		if v := sm.scan; v.dep|v.idle|v.sfu != 0 {
			t.Fatalf("SM %d holds scan verdicts %+v straight out of LoadState", sm.id, v)
		}
		for _, w := range sm.warps {
			if w.memoKeyOK {
				t.Fatalf("warp %d/%d holds a memo key straight out of LoadState", sm.id, w.id)
			}
		}
	}
	// Rebuilt-verdict consistency, audited at every checkpoint boundary
	// of the resumed run: every set bit must be what a fresh probe of
	// architected state would conclude.
	audited := 0
	resumed.Cfg.CheckpointEvery = total / 16
	if resumed.Cfg.CheckpointEvery == 0 {
		resumed.Cfg.CheckpointEvery = 1
	}
	resumed.OnCheckpoint = func(cycle uint64, b []byte) error {
		for _, sm := range resumed.sms {
			v := sm.scan
			audited += bits.OnesCount64(v.dep) + bits.OnesCount64(v.idle) +
				bits.OnesCount64(v.sfu)
		}
		if err := resumed.Audit(); err != nil {
			t.Errorf("cycle %d: %v", cycle, err)
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
