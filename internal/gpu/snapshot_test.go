package gpu

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/caba-sim/caba/internal/audit"
	"github.com/caba-sim/caba/internal/config"
	"github.com/caba-sim/caba/internal/core"
	"github.com/caba-sim/caba/internal/isa"
	"github.com/caba-sim/caba/internal/snapshot"
	"github.com/caba-sim/caba/internal/stats"
)

// newSnapSim builds one CABA-design simulator for the snapshot tests:
// assist warps, compression and the store buffer are all live, so a
// snapshot must carry every pending-work structure. fill prepares the
// input; a simulator built without it starts with empty memory, which a
// restored snapshot must fill.
func newSnapSim(t *testing.T, fill bool) *Simulator {
	t.Helper()
	const threads, iters = 1536, 8
	cfg := config.TestConfig()
	cfg.BWScale = 0.25
	cfg.MaxWarpsPerSM = 24
	cfg.MaxThreadsPerSM = 768
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

// TestSnapshotRejectsWrongConfig: a blob from one configuration must not
// load into a differently configured simulator, and must still load after
// any field config.Config.ResultConfig zeroes is changed.
func TestSnapshotRejectsWrongConfig(t *testing.T) {
	sim := newSnapSim(t, true)
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

	// Same blob, one result-neutral field changed at a time: loads.
	want := newSnapSim(t, false).Cfg.ResultConfig()
	for i := range reflect.TypeOf(config.Config{}).NumField() {
		ok := newSnapSim(t, false)
		Perturb(t, reflect.ValueOf(ok.Cfg).Elem().Field(i))
		if ok.Cfg.ResultConfig() != want {
			continue
		}
		if err := ok.LoadState(blob); err != nil {
			t.Errorf("changing result-neutral %s invalidated the snapshot: %v",
				reflect.TypeOf(config.Config{}).Field(i).Name, err)
		}
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
	sim := newSnapSim(t, true)
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
		fresh := newSnapSim(t, false)
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

// fuzzSim builds the small CABA-BDI simulator the snapshot fuzz targets
// restore into; fill prepares its input.
func fuzzSim(fill bool) (*Simulator, error) {
	const threads, iters = 512, 4
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

// fuzzBlobs runs the fuzz simulator to completion, checkpointing every
// 500 cycles, and returns every checkpoint it took.
func fuzzBlobs(f *testing.F) [][]byte {
	sim, err := fuzzSim(true)
	if err != nil {
		f.Fatal(err)
	}
	var blobs [][]byte
	sim.Cfg.CheckpointEvery = 500
	sim.OnCheckpoint = func(_ uint64, b []byte) error {
		blobs = append(blobs, append([]byte(nil), b...))
		return nil
	}
	if err := sim.Run(20_000_000); err != nil {
		f.Fatal(err)
	}
	if len(blobs) == 0 {
		f.Fatalf("no checkpoint in %d cycles", sim.Cycles())
	}
	return blobs
}

// FuzzSnapshotLoad fuzzes the full restore path with real checkpoints as
// the seed corpus. The property is absence of panics: any mutation either
// round-trips (unlikely past the CRC) or returns an error.
func FuzzSnapshotLoad(f *testing.F) {
	for _, b := range fuzzBlobs(f) {
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fresh, err := fuzzSim(false)
		if err != nil {
			t.Skip()
		}
		_ = fresh.LoadState(data) // must not panic
	})
}

// FuzzSnapshotPayload fuzzes the decoder behind the checksum: it XORs one
// payload byte of a real checkpoint with x and re-seals the payload under
// the run's configuration hash, so the corruption reaches the decoder
// instead of failing the CRC. Every rejection must come from an explicit
// check; an error from LoadState's recover backstop fails the target.
func FuzzSnapshotPayload(f *testing.F) {
	blobs := fuzzBlobs(f)
	for i, b := range blobs {
		f.Add(uint8(i), uint32(0), uint8(0))
		f.Add(uint8(i), uint32(len(b)/2), uint8(0x40))
		f.Add(uint8(i), uint32(40), uint8(0x01))
	}
	f.Fuzz(func(t *testing.T, which uint8, off uint32, x uint8) {
		hash, payload, err := snapshot.Inspect(blobs[int(which)%len(blobs)])
		if err != nil {
			t.Fatal(err)
		}
		p := append([]byte(nil), payload...)
		p[int(off)%len(p)] ^= x
		fresh, err := fuzzSim(false)
		if err != nil {
			t.Skip()
		}
		if err := fresh.LoadState(snapshot.Seal(hash, p)); err != nil && strings.Contains(err.Error(), "snapshot decode panic") {
			t.Fatalf("payload byte %d ^ %#x: %v", int(off)%len(p), x, err)
		}
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

// TestAuditCatchesIssueSlotDrift: every elapsed cycle fills each
// scheduler slot of every SM with one Figure 1 outcome, so the issue-slot
// counters sum to cycle × NumSchedulers × NumSMs. One slot too many must
// fail the issue-slots invariant.
func TestAuditCatchesIssueSlotDrift(t *testing.T) {
	cfg := config.TestConfig()
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
	sim.S.IssueSlots[stats.IdleCycle]++
	err = sim.Audit()
	var v *audit.Violation
	if !errors.As(err, &v) || v.Invariant != "issue-slots" {
		t.Fatalf("audit = %v, want an issue-slots violation", err)
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

// TestAuditCatchesStaleScanVerdict: a scan bit the issue stage would
// trust without probing must be true of architected state. A port bit
// on a warp whose instruction is of another class, or any verdict on an
// empty slot, must fail the issue-scan invariant on that SM.
func TestAuditCatchesStaleScanVerdict(t *testing.T) {
	cfg := config.TestConfig()
	k := &Kernel{Prog: streamSumKernel(), GridCTAs: 4, CTAThreads: 64,
		Params: [4]uint64{inBase, outBase, 256 * 4, 16}}
	sim, err := New(&cfg, config.DesignBase, k)
	if err != nil {
		t.Fatal(err)
	}
	fillInput(sim, 256*16, true)
	// Stop mid-run, with warps resident and verdicts live.
	if err := sim.Run(300); err == nil {
		t.Fatal("run finished before the cap; the test needs resident warps")
	}
	if err := sim.Audit(); err != nil {
		t.Fatalf("clean machine must audit clean: %v", err)
	}
	sm := sim.sms[0]
	var w *warpCtx
	for _, c := range sm.warps {
		if sm.resident(c) && c.exec.CurrentSop() != nil && c.exec.CurrentSop().Class != isa.ClassSFU {
			w = c
			break
		}
	}
	if w == nil {
		t.Fatal("no resident warp with a non-SFU instruction on SM 0")
	}
	expectScanViolation := func(what string) {
		t.Helper()
		err := sim.Audit()
		var v *audit.Violation
		if !errors.As(err, &v) || v.Invariant != "issue-scan" || v.SM != sm.id {
			t.Fatalf("%s: audit = %v, want issue-scan on SM %d", what, err, sm.id)
		}
	}
	saved := sm.scan
	sm.scan.sfu |= w.bit()
	expectScanViolation("sfu bit on a non-SFU instruction")
	sm.scan = saved
	for _, c := range sm.warps {
		if !sm.resident(c) {
			sm.scan.dep |= c.bit()
			expectScanViolation("dep bit on an empty slot")
			break
		}
	}
	sm.scan = saved
	if err := sim.Audit(); err != nil {
		t.Fatalf("restored masks must audit clean: %v", err)
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
				if sm.awc.Trigger(rt, 0, sm.newAssistExec(rt), nil) == nil {
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
// finds nothing and changes nothing. It audits every cycle, because some
// faults are transient: a GTO list that broke the cycle-0 tie rule is
// out of order for only the first few cycles.
func TestAuditEveryPassesCleanRun(t *testing.T) {
	plain := newSnapSim(t, true)
	if err := plain.Run(20_000_000); err != nil {
		t.Fatal(err)
	}
	audited := newSnapSim(t, true)
	audited.Cfg.AuditEvery = 1
	if err := audited.Run(20_000_000); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.S, audited.S) {
		t.Fatal("auditing changed the run's statistics")
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
	sim := newSnapSim(t, true)
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

// TestSnapshotEncodingPinned pins the bytes of two mid-run CABA-FPC
// states: at cycle 1000 the AWT is full (32 entries) and the utilization
// windows saturated; at cycle 8500 a few entries remain and the windows
// are part busy. The digests cover the whole sealed blob: format version,
// config hash and payload. A change to them needs a snapshot.Version
// bump, since older checkpoints and farm blobs would no longer restore.
func TestSnapshotEncodingPinned(t *testing.T) {
	want := map[uint64]string{
		1000: "a9de441c4b751ea1c6b321563a8e3d3a166463ff832550cbbff0e8d62cfd3555",
		8500: "6ea324676f64d4a897ce785f0398dbb970d224ada2a39fd1e198c2694bf82d4a",
	}
	const threads, iters = 1536, 8
	cfg := config.TestConfig()
	cfg.BWScale = 0.25
	cfg.MaxWarpsPerSM = 24
	cfg.MaxThreadsPerSM = 768
	k := &Kernel{Prog: streamSum4Kernel(), GridCTAs: 6, CTAThreads: 256,
		Params: [4]uint64{inBase, outBase, uint64(threads * 4), iters}}
	sim, err := New(&cfg, config.DesignCABAFPC, k)
	if err != nil {
		t.Fatal(err)
	}
	fillInput(sim, threads*iters, true)
	sim.Dom.Precompress(inBase, uint64(threads*iters*4))
	sim.Cfg.CheckpointEvery = 500
	got := map[uint64]string{}
	sim.OnCheckpoint = func(cycle uint64, blob []byte) error {
		if _, ok := want[cycle]; !ok {
			return nil
		}
		entries, busy := 0, 0.0
		for _, sm := range sim.sms {
			entries += len(sm.awc.Entries())
			busy = max(busy, sm.awc.Utilization())
		}
		if entries == 0 || busy == 0 {
			t.Errorf("cycle %d: %d AWT entries, peak utilization %v; the pinned states need both", cycle, entries, busy)
		}
		sum := sha256.Sum256(blob)
		got[cycle] = hex.EncodeToString(sum[:])
		return nil
	}
	if err := sim.Run(20_000_000); err != nil {
		t.Fatal(err)
	}
	for cycle, w := range want {
		if got[cycle] != w {
			t.Errorf("cycle %d: snapshot SHA-256 %s, want %s", cycle, got[cycle], w)
		}
	}
}
