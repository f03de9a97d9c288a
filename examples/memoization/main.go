// Memoization with assist warps (Section 7.1): CABA converts a
// computational bottleneck into a storage problem — hash the inputs of an
// expensive computation, probe a result cache, and skip the computation
// on a hit.
//
// The use case is first-class in the cycle-level simulator. Under the
// CABA-Memo design every SM carries a bounded set-associative result
// cache keyed by a content hash of the instruction and all 32 lanes'
// source operands. When an SFU instruction cannot issue because the
// port's initiation interval is busy, the SM probes the cache; on a hit
// it triggers the caba.memo.probe assist routine, the result is replayed
// architecturally, and the warp retires the instruction without ever
// entering the SFU pipe — extra SFU throughput exactly at the
// bottleneck. Misses that do execute install their result for later
// reuse. The cache is architected state: snapshots carry it, every
// engine strategy sees the same contents, and runs report the activity
// as MemoHits / MemoMisses / MemoUpdates / MemoNoSlot.
//
// The primary demonstration runs TBL — an SFU-heavy kernel with a
// recurring operand pattern — under Base and CABA-Memo and lets the
// timing model speak. The appendix then drives the underlying
// memo.lookup / memo.update subroutines by hand over a redundant input
// stream, the storage-side mechanics in isolation.
package main

import (
	"fmt"
	"log"
	"math/bits"
	"math/rand"

	caba "github.com/caba-sim/caba"
	"github.com/caba-sim/caba/internal/core"
	"github.com/caba-sim/caba/internal/isa"
)

func main() {
	// --- Primary: the simulated use case -------------------------------
	// TBL reuses a small operand domain, so the result cache converges
	// quickly. The shrunken per-SM thread capacity keeps the run short
	// while preserving the SFU-bound regime.
	cfg := caba.Baseline()
	cfg.Scale = 0.03
	cfg.MaxThreadsPerSM = 512

	base, err := caba.Run(cfg, caba.Base, "TBL", 1)
	if err != nil {
		log.Fatal(err)
	}
	memo, err := caba.Run(cfg, caba.CABAMemo, "TBL", 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("TBL, SFU-bound table lookups with recurring operands:")
	fmt.Printf("  Base:      %6d cycles\n", base.Cycles)
	fmt.Printf("  CABA-Memo: %6d cycles (%.2fx)\n",
		memo.Cycles, float64(base.Cycles)/float64(memo.Cycles))
	fmt.Printf("  probe hits=%d misses=%d installs=%d no-slot=%d\n\n",
		memo.Stats.MemoHits, memo.Stats.MemoMisses,
		memo.Stats.MemoUpdates, memo.Stats.MemoNoSlot)

	appendixLUT()
}

// --- Appendix: the subroutines, driven by hand ------------------------
// The same memo.lookup / memo.update routines the simulator's probe path
// uses, executed standalone against a shared-memory LUT so the hit/miss
// mechanics and the assist-instruction cost are visible.

func appendixLUT() {
	lib := caba.AssistLibrary()
	lookup, _ := lib.Get(core.RtMemoLookup)
	update, _ := lib.Get(core.RtMemoUpdate)
	if lookup == nil || update == nil {
		log.Fatal("memoization routines not preloaded")
	}

	// A redundant input stream: image-processing-style kernels see the
	// same pixel neighborhoods repeatedly (the paper cites fragment
	// shading and multimedia workloads [8, 12, 77]).
	rng := rand.New(rand.NewSource(7))
	distinct := 48 // unique inputs
	inputs := make([]uint64, 4096)
	for i := range inputs {
		inputs[i] = uint64(rng.Intn(distinct))*2654435761 + 17
	}

	// One shared-memory LUT per CTA, shared by its assist warps.
	lut := make([]byte, core.SharedScratchSize)

	const sfuCostPerMiss = 4 * 20 // four dependent SFU ops at 20 cycles
	hits, misses := 0, 0
	var assistInstrs uint64

	for base := 0; base < len(inputs); base += core.WarpSize {
		// Probe: one warp-wide lookup assist warp.
		probe := core.NewAssistExec(lookup)
		probe.Shared = lut
		for lane := 0; lane < core.WarpSize; lane++ {
			probe.SetReg(lane, 2, inputs[base+lane]) // live-in: input value
		}
		if _, err := probe.Run(1000); err != nil {
			log.Fatal(err)
		}
		assistInstrs += probe.Executed
		hitMask := uint32(probe.Result(isa.R(0))) // ballot of hitting lanes
		hits += bits.OnesCount32(hitMask)
		misses += core.WarpSize - bits.OnesCount32(hitMask)

		// Missing lanes compute for real, then an update assist warp
		// installs their results.
		up := core.NewAssistExec(update)
		up.Shared = lut
		for lane := 0; lane < core.WarpSize; lane++ {
			in := inputs[base+lane]
			up.SetReg(lane, 2, in)
			up.SetReg(lane, 3, in*in+1) // stand-in for the expensive result
		}
		if _, err := up.Run(1000); err != nil {
			log.Fatal(err)
		}
		assistInstrs += up.Executed
	}

	total := hits + misses
	fmt.Printf("appendix: hand-driven LUT over %d invocations (%d distinct inputs):\n", total, distinct)
	fmt.Printf("  LUT hits:   %d (%.1f%%)\n", hits, 100*float64(hits)/float64(total))
	fmt.Printf("  recomputed: %d\n", misses)
	saved := hits*sfuCostPerMiss - int(assistInstrs)
	fmt.Printf("  SFU cycles avoided: %d, assist instructions spent: %d, net saving: %d cycles\n",
		hits*sfuCostPerMiss, assistInstrs, saved)
	if saved <= 0 {
		fmt.Println("  (workload not redundant enough for memoization to pay off)")
	}
}
