package gpu

import (
	"errors"
	"reflect"
	"testing"

	"github.com/caba-sim/caba/internal/audit"
	"github.com/caba-sim/caba/internal/config"
	"github.com/caba-sim/caba/internal/core"
	"github.com/caba-sim/caba/internal/faults"
	"github.com/caba-sim/caba/internal/snapshot"
)

// snapMatrixCase is one point of the restore-equivalence matrix.
// workers sets the deprecated, ignored Config.SMWorkers, so the w4 cases
// check that a config still carrying it checkpoints and resumes exactly.
type snapMatrixCase struct {
	name    string
	workers int
	ff      bool
	faults  bool
}

func snapMatrix() []snapMatrixCase {
	var out []snapMatrixCase
	for _, w := range []int{1, 4} {
		for _, ff := range []bool{false, true} {
			for _, flt := range []bool{false, true} {
				name := "w1"
				if w == 4 {
					name = "w4"
				}
				if ff {
					name += "-ff"
				} else {
					name += "-noff"
				}
				if flt {
					name += "-faults"
				} else {
					name += "-clean"
				}
				out = append(out, snapMatrixCase{name, w, ff, flt})
			}
		}
	}
	return out
}

// newSnapSim builds one CABA-design simulator for the matrix: assist
// warps, compression, the store buffer and (optionally) fault recovery
// are all live, so a snapshot must carry every pending-work structure.
func newSnapSim(t *testing.T, c snapMatrixCase, fill bool) *Simulator {
	t.Helper()
	const threads, iters = 1536, 8
	cfg := config.TestConfig()
	cfg.SMWorkers = c.workers
	cfg.FastForward = c.ff
	cfg.BWScale = 0.25
	cfg.MaxWarpsPerSM = 24
	cfg.MaxThreadsPerSM = 768
	if c.faults {
		cfg.Faults = faults.Config{
			Seed:                7,
			BitFlipRate:         0.05,
			MDCorruptRate:       0.02,
			ResponseDelayRate:   0.05,
			ResponseDelayCycles: 200,
		}
	}
	k := &Kernel{Prog: streamSum4Kernel(), GridCTAs: 6, CTAThreads: 256,
		Params: [4]uint64{inBase, outBase, uint64(threads * 4), iters}}
	sim, err := New(&cfg, config.DesignCABABDI, k)
	if err != nil {
		t.Fatal(err)
	}
	if fill {
		fillInput(sim, threads*iters, true)
		sim.Dom.Precompress(inBase, uint64(threads*iters*4))
	}
	return sim
}

// outChecksum folds the output region into one value.
func outChecksum(sim *Simulator) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < 1536; i++ {
		h = (h ^ sim.Mem.ReadU(outBase+uint64(i*4), 4)) * 1099511628211
	}
	return h
}

// TestSnapshotRestoreEquivalence is the tentpole guarantee: run(N) →
// Save → Load into a fresh simulator → run(M−N) is bit-identical to
// run(M), at snapshot points near 25%, 50% and 90% of the run, across
// SMWorkers {1,4} (deprecated, ignored), fast-forward settings and fault
// campaigns. It also
// checks that a run with checkpointing (and auditing) enabled produces
// exactly the stats of one without — maintenance must not perturb
// simulated state.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	const maxCycles = 20_000_000
	for _, c := range snapMatrix() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			straight := newSnapSim(t, c, true)
			if err := straight.Run(maxCycles); err != nil {
				t.Fatal(err)
			}
			total := straight.Cycles()
			if total == 0 {
				t.Fatal("straight run recorded no cycles")
			}

			// One checkpointed+audited run, capturing every blob.
			type ckpt struct {
				cycle uint64
				blob  []byte
			}
			var ckpts []ckpt
			ck := newSnapSim(t, c, true)
			every := total / 20
			if every == 0 {
				every = 1
			}
			ck.Cfg.CheckpointEvery = every
			ck.Cfg.AuditEvery = every / 2
			if ck.Cfg.AuditEvery == 0 {
				ck.Cfg.AuditEvery = 1
			}
			ck.OnCheckpoint = func(cycle uint64, blob []byte) error {
				ckpts = append(ckpts, ckpt{cycle, append([]byte(nil), blob...)})
				return nil
			}
			if err := ck.Run(maxCycles); err != nil {
				t.Fatal(err)
			}
			if len(ckpts) == 0 {
				t.Fatal("no checkpoints taken")
			}
			// Zero-overhead: checkpointing and auditing changed nothing.
			if !reflect.DeepEqual(straight.S, ck.S) {
				t.Fatalf("checkpointed run diverged from straight run:\nstraight: %+v\ncheckpointed: %+v", straight.S, ck.S)
			}
			if outChecksum(straight) != outChecksum(ck) {
				t.Fatal("checkpointed run produced different output memory")
			}

			for _, pct := range []uint64{25, 50, 90} {
				target := total * pct / 100
				var chosen *ckpt
				for i := range ckpts {
					if ckpts[i].cycle >= target {
						chosen = &ckpts[i]
						break
					}
				}
				if chosen == nil {
					chosen = &ckpts[len(ckpts)-1]
				}
				// Restore into a fresh simulator with *empty* memory: the
				// snapshot must carry all of it.
				resumed := newSnapSim(t, c, false)
				if err := resumed.LoadState(chosen.blob); err != nil {
					t.Fatalf("restore at %d%% (cycle %d): %v", pct, chosen.cycle, err)
				}
				if err := resumed.Run(maxCycles); err != nil {
					t.Fatalf("resume at %d%% (cycle %d): %v", pct, chosen.cycle, err)
				}
				if resumed.Cycles() != total {
					t.Fatalf("resume at %d%%: finished at cycle %d, straight run at %d",
						pct, resumed.Cycles(), total)
				}
				if !reflect.DeepEqual(straight.S, resumed.S) {
					t.Fatalf("resume at %d%% (cycle %d): stats diverged:\nstraight: %+v\nresumed: %+v",
						pct, chosen.cycle, straight.S, resumed.S)
				}
				if outChecksum(straight) != outChecksum(resumed) {
					t.Fatalf("resume at %d%%: output memory diverged", pct)
				}
				sk1, cy1 := straight.FastForwardStats()
				sk2, cy2 := resumed.FastForwardStats()
				if sk1 != sk2 || cy1 != cy2 {
					t.Fatalf("resume at %d%%: fast-forward stats diverged: %d/%d vs %d/%d",
						pct, sk1, cy1, sk2, cy2)
				}
			}
		})
	}
}

// TestSnapshotResumeReproducesWedge: a fault campaign that drops
// responses ends in a WedgeError; resuming from a mid-run checkpoint
// must reproduce the identical wedge (same cycle, same message).
func TestSnapshotResumeReproducesWedge(t *testing.T) {
	build := func(fill bool) *Simulator {
		const threads, iters = 512, 8
		cfg := config.TestConfig()
		cfg.WedgeLimit = 20_000
		cfg.Faults = faults.Config{Seed: 11, ResponseDropRate: 0.02}
		k := &Kernel{Prog: streamSumKernel(), GridCTAs: 4, CTAThreads: 64,
			Params: [4]uint64{inBase, outBase, uint64(threads * 4), iters}}
		sim, err := New(&cfg, config.DesignCABABDI, k)
		if err != nil {
			t.Fatal(err)
		}
		if fill {
			fillInput(sim, threads*iters, true)
			sim.Dom.Precompress(inBase, uint64(threads*iters*4))
		}
		return sim
	}
	straight := build(true)
	errStraight := straight.Run(5_000_000)
	var we *WedgeError
	if !errors.As(errStraight, &we) {
		t.Fatalf("dropping campaign should wedge, got %v", errStraight)
	}

	var blob []byte
	ck := build(true)
	ck.Cfg.CheckpointEvery = 2_000
	ck.OnCheckpoint = func(cycle uint64, b []byte) error {
		if blob == nil {
			blob = append([]byte(nil), b...)
		}
		return nil
	}
	errCk := ck.Run(5_000_000)
	if errCk == nil || errCk.Error() != errStraight.Error() {
		t.Fatalf("checkpointed run: %v, want %v", errCk, errStraight)
	}
	if blob == nil {
		t.Fatal("wedge before first checkpoint; lower CheckpointEvery")
	}

	resumed := build(false)
	if err := resumed.LoadState(blob); err != nil {
		t.Fatal(err)
	}
	errResumed := resumed.Run(5_000_000)
	var we2 *WedgeError
	if !errors.As(errResumed, &we2) {
		t.Fatalf("resumed run: %v, want a wedge", errResumed)
	}
	if we2.Cycle != we.Cycle || errResumed.Error() != errStraight.Error() {
		t.Fatalf("resumed wedge at cycle %d (%v), straight at %d (%v)",
			we2.Cycle, errResumed, we.Cycle, errStraight)
	}
}

// TestSnapshotRejectsWrongConfig: a blob from one configuration must not
// load into a differently configured simulator.
func TestSnapshotRejectsWrongConfig(t *testing.T) {
	c := snapMatrixCase{workers: 1}
	sim := newSnapSim(t, c, true)
	var blob []byte
	sim.Cfg.CheckpointEvery = 5_000
	sim.OnCheckpoint = func(_ uint64, b []byte) error {
		if blob == nil {
			blob = append([]byte(nil), b...)
		}
		return nil
	}
	if err := sim.Run(20_000_000); err != nil {
		t.Fatal(err)
	}
	if blob == nil {
		t.Fatal("no checkpoint taken")
	}

	// Same blob, same config modulo observability/strategy knobs: loads.
	ok := newSnapSim(t, snapMatrixCase{workers: 4, ff: true}, false)
	if err := ok.LoadState(blob); err != nil {
		t.Fatalf("SMWorkers/FF changes must not invalidate a snapshot: %v", err)
	}

	// A different design must be rejected.
	cfg := config.TestConfig()
	cfg.BWScale = 0.25
	cfg.MaxWarpsPerSM = 24
	cfg.MaxThreadsPerSM = 768
	k := &Kernel{Prog: streamSum4Kernel(), GridCTAs: 6, CTAThreads: 256,
		Params: [4]uint64{inBase, outBase, 1536 * 4, 8}}
	other, err := New(&cfg, config.DesignBase, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.LoadState(blob); err == nil {
		t.Fatal("blob from a CABA design loaded into a base design")
	}
}

// TestSnapshotLoadNeverPanics drives the loader over truncations, bit
// flips and version skew: every corruption must yield a structured error,
// never a panic (the fuzz target extends this).
func TestSnapshotLoadNeverPanics(t *testing.T) {
	c := snapMatrixCase{workers: 1}
	sim := newSnapSim(t, c, true)
	var blob []byte
	sim.Cfg.CheckpointEvery = 5_000
	sim.OnCheckpoint = func(_ uint64, b []byte) error {
		if blob == nil {
			blob = append([]byte(nil), b...)
		}
		return nil
	}
	if err := sim.Run(20_000_000); err != nil {
		t.Fatal(err)
	}
	if blob == nil {
		t.Fatal("no checkpoint taken")
	}

	try := func(name string, data []byte) {
		fresh := newSnapSim(t, c, false)
		if err := fresh.LoadState(data); err == nil {
			t.Errorf("%s: corrupted blob loaded without error", name)
		}
	}
	for _, n := range []int{0, 1, 8, 27, 28, len(blob) / 2, len(blob) - 1} {
		if n < len(blob) {
			try("truncate", blob[:n])
		}
	}
	for _, off := range []int{0, 8, 12, 20, 28, len(blob) / 3, 2 * len(blob) / 3, len(blob) - 5} {
		mut := append([]byte(nil), blob...)
		mut[off] ^= 0x40
		try("bitflip", mut)
	}
	skew := append([]byte(nil), blob...)
	skew[8]++ // version field
	try("version-skew", skew)
}

// FuzzSnapshotLoad fuzzes the full restore path with a real checkpoint
// as the seed corpus. The property is absence of panics: any mutation
// either round-trips (unlikely past the CRC) or returns an error.
func FuzzSnapshotLoad(f *testing.F) {
	c := snapMatrixCase{workers: 1}
	const threads, iters = 512, 4
	build := func(fill bool) (*Simulator, error) {
		cfg := config.TestConfig()
		cfg.BWScale = 0.25
		k := &Kernel{Prog: streamSum4Kernel(), GridCTAs: 2, CTAThreads: 256,
			Params: [4]uint64{inBase, outBase, uint64(threads * 4), iters}}
		sim, err := New(&cfg, config.DesignCABABDI, k)
		if err != nil {
			return nil, err
		}
		if fill {
			fillInput(sim, threads*iters, true)
			sim.Dom.Precompress(inBase, uint64(threads*iters*4))
		}
		return sim, nil
	}
	sim, err := build(true)
	if err != nil {
		f.Fatal(err)
	}
	var blob []byte
	sim.Cfg.CheckpointEvery = 2_000
	sim.OnCheckpoint = func(_ uint64, b []byte) error {
		if blob == nil {
			blob = append([]byte(nil), b...)
		}
		return nil
	}
	if err := sim.Run(20_000_000); err != nil {
		f.Fatal(err)
	}
	if blob != nil {
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fresh, err := build(false)
		if err != nil {
			t.Skip()
		}
		_ = fresh.LoadState(data) // must not panic
		_ = c
	})
}

// TestAuditCatchesMSHRLeak: a deliberately leaked MSHR entry must trip
// the auditor with a structured violation naming the invariant, cycle
// and SM, carrying the flight-recorder trail.
func TestAuditCatchesMSHRLeak(t *testing.T) {
	cfg := config.TestConfig()
	cfg.FlightRecorderDepth = 16
	k := &Kernel{Prog: vecScaleKernel(), GridCTAs: 2, CTAThreads: 64,
		Params: [4]uint64{inBase, outBase}}
	sim, err := New(&cfg, config.DesignBase, k)
	if err != nil {
		t.Fatal(err)
	}
	fillInput(sim, 128, true)
	if err := sim.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if err := sim.Audit(); err != nil {
		t.Fatalf("clean machine must audit clean: %v", err)
	}

	// Leak: an allocated line whose only waiter expects zero lines can
	// never complete or free.
	sim.sms[0].mshr.Add(0x1000, &loadReq{warp: sim.sms[0].warps[0]})
	err = sim.Audit()
	var v *audit.Violation
	if !errors.As(err, &v) {
		t.Fatalf("leak not detected: %v", err)
	}
	if v.Invariant != "mshr-waiters" || v.SM != 0 {
		t.Fatalf("violation = %+v, want mshr-waiters on SM 0", v)
	}
	if len(v.Records) == 0 {
		t.Error("violation should carry the flight-recorder trail")
	}
}

// TestAuditCatchesUnarmedRetry: a queued assist-warp trigger that could
// land now, on an SM whose retry scan is not armed, would wait until some
// unrelated retirement re-armed the scan. The auditor must name the
// retry-armed invariant and the SM.
func TestAuditCatchesUnarmedRetry(t *testing.T) {
	cfg := config.TestConfig()
	k := &Kernel{Prog: vecScaleKernel(), GridCTAs: 2, CTAThreads: 64,
		Params: [4]uint64{inBase, outBase}}
	sim, err := New(&cfg, config.DesignCABABDI, k)
	if err != nil {
		t.Fatal(err)
	}
	fillInput(sim, 128, true)
	if err := sim.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if err := sim.Audit(); err != nil {
		t.Fatalf("clean machine must audit clean: %v", err)
	}

	// An ECC check queued on SM 1 while its AWT has free slots lands on
	// the next scan, so that scan must be armed.
	sm := sim.sms[1]
	if sm.awc.Full() {
		t.Fatal("AWT should have free slots after the run")
	}
	sm.decompRetry = append(sm.decompRetry, pendingTrigger{kind: pendECC, dc: &decompCtx{}})
	sm.retryArmed = true
	if err := sim.Audit(); err != nil {
		t.Fatalf("an armed scan must audit clean: %v", err)
	}
	sm.retryArmed = false
	err = sim.Audit()
	var v *audit.Violation
	if !errors.As(err, &v) {
		t.Fatalf("unarmed landable trigger not detected: %v", err)
	}
	if v.Invariant != "retry-armed" || v.SM != sm.id {
		t.Fatalf("violation = %+v, want retry-armed on SM %d", v, sm.id)
	}
}

// TestStoreReleaseArmsRetry pins the store-side arming sites: a line whose
// compression step waits behind a full low-priority AWB partition drops
// its step once released, so releasing it raw (evictOldestStore) or
// sending it (releaseStore) must arm the retry scan.
func TestStoreReleaseArmsRetry(t *testing.T) {
	for _, tc := range []struct {
		name    string
		release func(sm *SM, se *storeEntry)
	}{
		{"evictOldestStore", func(sm *SM, _ *storeEntry) { sm.evictOldestStore() }},
		{"releaseStore", func(sm *SM, se *storeEntry) { sm.releaseStore(se) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := config.TestConfig()
			k := &Kernel{Prog: vecScaleKernel(), GridCTAs: 2, CTAThreads: 64,
				Params: [4]uint64{inBase, outBase}}
			sim, err := New(&cfg, config.DesignCABABDI, k)
			if err != nil {
				t.Fatal(err)
			}
			sm := sim.sms[0]
			rt := sim.AWS.MustGet(core.RtBDICompSpecial)
			for sm.awc.CanTrigger(rt.Priority, 0) {
				if sm.awc.Trigger(rt, 0, sm.newAssistExec(rt), nil, nil) == nil {
					t.Fatal("trigger refused while CanTrigger holds")
				}
			}
			se := &storeEntry{lineAddr: outBase, state: sbQueued,
				chain: []core.RoutineID{core.RtBDICompSpecial}}
			sm.storeBuf = append(sm.storeBuf, se)
			sm.decompRetry = append(sm.decompRetry, pendingTrigger{kind: pendCompress, se: se})
			if err := sim.Audit(); err != nil {
				t.Fatalf("a step that cannot land must audit clean unarmed: %v", err)
			}
			tc.release(sm, se)
			if err := sim.Audit(); err != nil {
				t.Fatalf("release did not arm the retry scan: %v", err)
			}
		})
	}
}

// TestAuditEveryPassesCleanRun: continuous auditing over a full CABA run
// finds nothing and changes nothing.
func TestAuditEveryPassesCleanRun(t *testing.T) {
	c := snapMatrixCase{workers: 4, ff: true}
	plain := newSnapSim(t, c, true)
	if err := plain.Run(20_000_000); err != nil {
		t.Fatal(err)
	}
	audited := newSnapSim(t, c, true)
	audited.Cfg.AuditEvery = 500
	if err := audited.Run(20_000_000); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.S, audited.S) {
		t.Fatal("auditing changed the run's statistics")
	}
}

// TestInterruptDuringFastForward: an interrupt must be observed inside
// the fast-forward path, not just at the slow-path poll.
func TestInterruptDuringFastForward(t *testing.T) {
	const threads, iters = 512, 8
	cfg := config.TestConfig()
	cfg.FastForward = true
	cfg.Faults = faults.Config{Seed: 3, ResponseDelayRate: 1.0, ResponseDelayCycles: 40_000}
	k := &Kernel{Prog: streamSumKernel(), GridCTAs: 4, CTAThreads: 64,
		Params: [4]uint64{inBase, outBase, uint64(threads * 4), iters}}
	sim, err := New(&cfg, config.DesignCABABDI, k)
	if err != nil {
		t.Fatal(err)
	}
	fillInput(sim, threads*iters, true)
	sim.Dom.Precompress(inBase, uint64(threads*iters*4))
	sim.Interrupt()
	runErr := sim.Run(50_000_000)
	if !errors.Is(runErr, ErrInterrupted) {
		t.Fatalf("Run = %v, want ErrInterrupted", runErr)
	}
}

// TestWedgeErrorMessageCompat pins the legacy error strings the typed
// wedge error must keep emitting.
func TestWedgeErrorMessageCompat(t *testing.T) {
	drain := &WedgeError{Cycle: 42, Drain: true}
	if got := drain.Error(); got != "gpu: wedged waiting for memory drain at cycle 42" {
		t.Errorf("drain message changed: %q", got)
	}
	drop := &WedgeError{Cycle: 7, Dropped: 3}
	want := "gpu: wedged at cycle 7: 3 memory responses dropped by fault injection, warps stalled forever"
	if got := drop.Error(); got != want {
		t.Errorf("drop message changed: %q", got)
	}
}

// TestSnapshotBlobWellFormed sanity-checks the container round trip at
// this layer (Seal/Open compatibility with the GPU's config hash).
func TestSnapshotBlobWellFormed(t *testing.T) {
	c := snapMatrixCase{workers: 1}
	sim := newSnapSim(t, c, true)
	hash, err := sim.configHash()
	if err != nil {
		t.Fatal(err)
	}
	var blob []byte
	sim.Cfg.CheckpointEvery = 5_000
	sim.OnCheckpoint = func(_ uint64, b []byte) error {
		if blob == nil {
			blob = append([]byte(nil), b...)
		}
		return nil
	}
	if err := sim.Run(20_000_000); err != nil {
		t.Fatal(err)
	}
	if blob == nil {
		t.Fatal("no checkpoint taken")
	}
	if _, err := snapshot.Open(blob, hash); err != nil {
		t.Fatalf("sealed blob does not open with the run's config hash: %v", err)
	}
	if _, err := snapshot.Open(blob, hash+1); err == nil {
		t.Fatal("blob opened with the wrong config hash")
	}
}
