// Prefetching with assist warps (Section 7.2), run the way the paper
// means it: as a hardware use case inside the cycle-level simulator.
//
// The CABA-Prefetch design arms a per-warp stride detector in every SM.
// It trains on L1 misses; once a (warp, PC) stream shows a stable stride,
// the AWC triggers the caba.prefetch assist routine with the next address
// and the detected stride as live-ins, and the assist warp issues a
// degree of strided fills from otherwise-idle memory-pipeline slots.
// Triggers are throttled when the MSHRs or the assist controller are
// under pressure, so prefetching never steals bandwidth a demand miss
// needs. All of this is architected state: it survives snapshots, it is
// bit-identical across engine strategies, and the run reports it in the
// standard counters (PrefetchTriggers / PrefetchUseful /
// PrefetchThrottled).
//
// The primary demonstration below therefore just runs a latency-bound
// strided workload (STRD) under Base and CABA-Prefetch and lets the
// timing model speak. The appendix then pops the hood two ways: driving
// the caba.prefetch subroutine by hand to show the addresses it covers,
// and hand-software-pipelining the same loop to show that the cycles the
// prefetcher buys equal the overlap it creates.
package main

import (
	"fmt"
	"log"

	caba "github.com/caba-sim/caba"
	"github.com/caba-sim/caba/internal/core"
	"github.com/caba-sim/caba/internal/isa"
)

func main() {
	// --- Primary: the simulated use case -------------------------------
	// STRD is the low-occupancy strided stream built for this regime: too
	// few warps to hide memory latency, so covering misses early pays.
	cfg := caba.Baseline()
	cfg.Scale = 0.03

	base, err := caba.Run(cfg, caba.Base, "STRD", 1)
	if err != nil {
		log.Fatal(err)
	}
	pf, err := caba.Run(cfg, caba.CABAPrefetch, "STRD", 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("STRD, strided streaming at low occupancy:")
	fmt.Printf("  Base:          %6d cycles\n", base.Cycles)
	fmt.Printf("  CABA-Prefetch: %6d cycles (%.2fx)\n",
		pf.Cycles, float64(base.Cycles)/float64(pf.Cycles))
	fmt.Printf("  triggers=%d useful fills=%d throttled=%d\n\n",
		pf.Stats.PrefetchTriggers, pf.Stats.PrefetchUseful, pf.Stats.PrefetchThrottled)

	appendixRoutine()
	appendixOverlap()
}

// --- Appendix A: the assist subroutine, driven by hand ----------------
// The same caba.prefetch routine the simulator triggers, executed in
// isolation so the addresses it covers are visible. The live-ins (next
// address, stride) are exactly what the SM's stride table hands the AWC
// at trigger time.

// recordMem captures the addresses the prefetch routine touches.
type recordMem struct{ addrs []uint64 }

func (m *recordMem) LoadGlobal(a uint64, w uint8) uint64          { m.addrs = append(m.addrs, a); return 0 }
func (m *recordMem) StoreGlobal(a uint64, v uint64, w uint8)      {}
func (m *recordMem) AtomicAdd(a uint64, v uint64, w uint8) uint64 { return 0 }

func appendixRoutine() {
	lib := caba.AssistLibrary()
	rt, _ := lib.Get(core.RtPrefetch)
	if rt == nil {
		log.Fatal("prefetch routine not preloaded")
	}
	ex := core.NewAssistExec(rt)
	mem := &recordMem{}
	ex.Mem = mem
	const base, stride = 0x1000_0000, 512
	for lane := 0; lane < core.WarpSize; lane++ {
		ex.SetReg(lane, 2, base)
		ex.SetReg(lane, 3, stride)
	}
	if _, err := ex.Run(100); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("appendix A: one trigger covers %d requests in %d assist instructions:\n",
		len(mem.addrs), ex.Executed)
	for _, a := range mem.addrs {
		fmt.Printf("  prefetch 0x%x (+%d)\n", a, a-base)
	}
}

// --- Appendix B: the overlap, hand-built ------------------------------
// What the prefetcher buys is memory-level parallelism. Pipelining the
// same strided loop by hand — four lines in flight instead of one —
// reproduces the overlap a degree-4 assist-warp prefetcher creates
// transparently, without recompiling the kernel.

func appendixOverlap() {
	cfg := caba.QuickConfig()
	cfg.NumSMs = 2
	cfg.MaxThreadsPerSM = 128
	cfg.MaxWarpsPerSM = 4
	plain := `
  movi r10, 0x10000000
  mov r0, %gtid
  shl r0, r0, 2
  add r1, r0, r10
  movi r2, 0
  movi r3, 0
loop:
  ld.global.u32 r4, [r1]
  add r2, r2, r4        ; consume immediately: full latency exposed
  add r1, r1, %p2
  add r3, r3, 1
  setp.lt p0, r3, %p3
  @p0 bra loop
  movi r10, 0x20000000
  add r5, r0, r10
  st.global.u32 [r5], r2
  exit`
	pipelined := `
  movi r10, 0x10000000
  mov r0, %gtid
  shl r0, r0, 2
  add r1, r0, r10
  movi r2, 0
  movi r3, 0
loop:
  ld.global.u32 r4, [r1]  ; four lines in flight at once -- the overlap a
  add r1, r1, %p2         ; degree-4 assist-warp prefetcher creates
  ld.global.u32 r5, [r1]
  add r1, r1, %p2
  ld.global.u32 r6, [r1]
  add r1, r1, %p2
  ld.global.u32 r7, [r1]
  add r1, r1, %p2
  add r2, r2, r4
  add r2, r2, r5
  add r2, r2, r6
  add r2, r2, r7
  add r3, r3, 4
  setp.lt p0, r3, %p3
  @p0 bra loop
  movi r10, 0x20000000
  add r5, r0, r10
  st.global.u32 [r5], r2
  exit`

	run := func(src string) uint64 {
		prog, err := caba.Assemble("stream", src)
		if err != nil {
			log.Fatal(err)
		}
		threads := 512
		k := &caba.Kernel{Prog: prog, GridCTAs: threads / 128, CTAThreads: 128,
			Params: [4]uint64{0, 0, uint64(threads * 4), 32}}
		res, err := caba.RunKernel(cfg, caba.Base, k, nil)
		if err != nil {
			log.Fatal(err)
		}
		return res.Cycles
	}
	exposed := run(plain)
	hidden := run(pipelined)
	fmt.Printf("\nappendix B: strided sum, latency exposed: %d cycles\n", exposed)
	fmt.Printf("            strided sum, 4-deep overlap:   %d cycles (%.2fx)\n",
		hidden, float64(exposed)/float64(hidden))
	fmt.Println("the CABA-Prefetch design provides this overlap transparently,")
	fmt.Println("throttled to idle memory-pipeline slots (Section 7.2).")
	_ = isa.RegZero // keep the isa import for the doc reference
}
