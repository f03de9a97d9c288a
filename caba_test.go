package caba_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	caba "github.com/caba-sim/caba"
)

func TestPublicRunAPI(t *testing.T) {
	cfg := caba.QuickConfig()
	cfg.Scale = 0.02
	res, err := caba.Run(cfg, caba.CABABDI, "PVC", 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.App != "PVC" || res.Design != "CABA-BDI" {
		t.Errorf("identity = %s/%s", res.App, res.Design)
	}
	if res.IPC <= 0 || res.Cycles == 0 {
		t.Error("no work simulated")
	}
	if res.CompressionRatio <= 1.0 {
		t.Errorf("PVC should compress (ratio %.2f)", res.CompressionRatio)
	}
	if res.Stats.AssistWarps == 0 {
		t.Error("CABA run must trigger assist warps")
	}
}

func TestPublicRunUnknownApp(t *testing.T) {
	if _, err := caba.Run(caba.QuickConfig(), caba.Base, "nonesuch", 1); err == nil {
		t.Error("unknown app must error")
	}
}

func TestProfilingGateDisablesComputeBoundApps(t *testing.T) {
	cfg := caba.QuickConfig()
	cfg.Scale = 0.02
	// NQU is compute-bound: the Section 4.3.1 gate must disable CABA
	// compression — same label, no assist warps, no degradation.
	res, err := caba.Run(cfg, caba.CABABDI, "NQU", 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Design != "CABA-BDI" {
		t.Errorf("design label = %s", res.Design)
	}
	if res.Stats.AssistWarps != 0 {
		t.Errorf("compute-bound app triggered %d assist warps", res.Stats.AssistWarps)
	}
}

func TestPublicRunKernel(t *testing.T) {
	prog, err := caba.Assemble("double", `
  mov r0, %gtid
  shl r0, r0, 2
  add r1, r0, %p0
  ld.global.u32 r2, [r1]
  add r2, r2, r2
  st.global.u32 [r1], r2
  exit`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := caba.QuickConfig()
	cfg.NumSMs = 2
	cfg.MaxThreadsPerSM = 256
	k := &caba.Kernel{Prog: prog, GridCTAs: 2, CTAThreads: 64, Params: [4]uint64{0x1000}}
	res, err := caba.RunKernel(cfg, caba.Base, k, func(sim *caba.Simulator) {
		for i := 0; i < 128; i++ {
			sim.Mem.WriteU(0x1000+uint64(i*4), uint64(i), 4)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Error("kernel did not run")
	}
}

// TestAtomicAddUniqueAcrossSMs pins the cross-SM memory contract: SMs
// tick one at a time in index order, and an SM's same-cycle stores,
// atomics and Domain writes are visible to higher-indexed SMs in the same
// cycle. Every SM issues its atomics on one counter in the same cycles
// here, so each of the 256 threads must still get back a distinct old
// value, exactly as a real atomic returns.
func TestAtomicAddUniqueAcrossSMs(t *testing.T) {
	prog, err := caba.Assemble("atomuniq", `
  movi r6, 1
  atom.add.u32 r7, [%p1], r6
  mov r0, %gtid
  shl r0, r0, 2
  add r1, r0, %p0
  st.global.u32 [r1], r7
  exit`)
	if err != nil {
		t.Fatal(err)
	}
	const out, counter, threads = 0x10000, 0x1000, 256
	cfg := caba.QuickConfig()
	cfg.NumSMs = 4
	cfg.MaxThreadsPerSM = 64
	k := &caba.Kernel{Prog: prog, GridCTAs: 8, CTAThreads: 32, Params: [4]uint64{out, counter}}
	var sim *caba.Simulator
	if _, err := caba.RunKernel(cfg, caba.Base, k, func(s *caba.Simulator) { sim = s }); err != nil {
		t.Fatal(err)
	}
	if got := sim.Mem.ReadU(counter, 4); got != threads {
		t.Errorf("counter = %d, want %d", got, threads)
	}
	seen := make(map[uint64]bool, threads)
	for i := 0; i < threads; i++ {
		seen[sim.Mem.ReadU(out+uint64(4*i), 4)] = true
	}
	if len(seen) != threads {
		t.Errorf("atom.add returned %d distinct old values across %d threads, want %d", len(seen), threads, threads)
	}
}

func TestApplicationsPool(t *testing.T) {
	apps := caba.Applications()
	// 30 paper apps plus the two Section 7 use-case studies (STRD, TBL).
	if len(apps) != 32 {
		t.Errorf("pool = %d apps, want 32", len(apps))
	}
	if _, err := caba.AppByName("sssp"); err != nil {
		t.Error(err)
	}
	if _, err := caba.AppByName("STRD"); err != nil {
		t.Error(err)
	}
	if _, err := caba.AppByName("TBL"); err != nil {
		t.Error(err)
	}
}

func TestCompressionToolkit(t *testing.T) {
	line := make([]byte, caba.LineSize) // zeros
	c, err := caba.CompressLine(caba.AlgBDI, line)
	if err != nil || !c.IsCompressed() {
		t.Fatalf("zero line should compress: %v", err)
	}
	out := make([]byte, caba.LineSize)
	if err := caba.DecompressLine(c, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, line) {
		t.Error("round trip failed")
	}
	ratio, err := caba.MeasureRatio(caba.AlgBest, make([]byte, 4*caba.LineSize))
	if err != nil || ratio < 3.9 {
		t.Errorf("zero-data ratio = %v, %v", ratio, err)
	}
}

func TestAssistWarpToolkit(t *testing.T) {
	lib := caba.AssistLibrary()
	if lib.Len() < 17 {
		t.Errorf("library has %d routines", lib.Len())
	}
	// 32 little-endian words base+i: one base and small deltas, which BDI
	// compresses.
	line := make([]byte, caba.LineSize)
	for i := 0; i < caba.LineSize/4; i++ {
		binary.LittleEndian.PutUint32(line[4*i:], 0x12345600+uint32(i))
	}
	c, instrs, err := caba.CompressWithAssistWarp(caba.AlgBDI, line)
	if err != nil {
		t.Fatal(err)
	}
	if instrs == 0 {
		t.Error("assist compression must execute instructions")
	}
	if !c.IsCompressed() {
		t.Fatal("a base+delta line did not compress under BDI")
	}
	out, dinstrs, err := caba.DecompressWithAssistWarp(c)
	if err != nil {
		t.Fatal(err)
	}
	if dinstrs == 0 || !bytes.Equal(out, line) {
		t.Error("assist decompression broken")
	}
}
