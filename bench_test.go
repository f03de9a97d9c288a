package caba_test

// One benchmark per paper table/figure (deliverable d): each regenerates
// its experiment and reports the headline numbers as custom benchmark
// metrics, so `go test -bench=. -benchmem` reproduces the evaluation.
//
// Scale: benches default to small working sets so the full suite finishes
// in minutes; set CABA_BENCH_SCALE (e.g. 0.2) or CABA_FULL=1 for
// paper-scale runs. Shapes (who wins, by roughly what factor) are stable
// across scales; EXPERIMENTS.md records the calibrated runs.

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"testing"

	caba "github.com/caba-sim/caba"
	"github.com/caba-sim/caba/experiments"
	"github.com/caba-sim/caba/internal/stats"
)

// benchOptions returns the one Options every figure benchmark shares. A
// cell one figure simulated is reused by every later figure through the
// Options' in-memory results: Figures 8 and 9 and BenchmarkMDCacheHitRate
// read Figure 7's study sweep instead of repeating it.
var benchOptions = sync.OnceValue(func() experiments.Options {
	o := experiments.Defaults(io.Discard)
	o.Scale = 0.02
	if s := os.Getenv("CABA_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil {
			o.Scale = v
		}
	}
	if os.Getenv("CABA_FULL") == "1" {
		o.Scale = 1.0
	}
	if testing.Verbose() {
		o.Out = os.Stdout
	}
	return o
})

func BenchmarkFig01StallBreakdown(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.MemDepFraction1x, "mem+dep-1x-%")
		b.ReportMetric(100*res.MemDepFraction2x, "mem+dep-2x-%")
		// Paper: 61% at 1x, 51% at 2x — more bandwidth, fewer stalls.
		if res.MemDepFraction2x >= res.MemDepFraction1x {
			b.Errorf("memory stalls must shrink with more bandwidth: 1x=%.2f 2x=%.2f",
				res.MemDepFraction1x, res.MemDepFraction2x)
		}
	}
}

func BenchmarkFig02UnallocatedRegisters(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig2(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Average, "unallocated-%")
		// Paper: 24% average; a substantial unallocated fraction is what
		// makes assist-warp register provisioning free.
		if res.Average < 0.05 || res.Average > 0.80 {
			b.Errorf("average unallocated registers = %.2f; out of plausible range", res.Average)
		}
	}
}

func BenchmarkFig07Performance(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		s, err := experiments.Fig7(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(s.CABASpeedup(), "caba-speedup-x")
		b.ReportMetric(s.IdealSpeedup(), "ideal-speedup-x")
		b.ReportMetric(s.HWSpeedup(), "hw-speedup-x")
		b.ReportMetric(s.HWMemSpeedup(), "hwmem-speedup-x")
		// Paper shape: Ideal >= HW-BDI-Mem always. CABA's proximity to
		// the hardware designs is only meaningful once runs are long
		// enough to leave the cold-start transient (see EXPERIMENTS.md);
		// below scale 0.1 decompression latency dominates tiny runs.
		if s.IdealSpeedup() < s.HWMemSpeedup() {
			b.Errorf("Ideal (%.2f) below HW-BDI-Mem (%.2f)", s.IdealSpeedup(), s.HWMemSpeedup())
		}
		if o.Scale >= 0.1 && s.CABASpeedup() < 0.80*s.HWMemSpeedup() {
			b.Errorf("CABA (%.2f) too far below HW-BDI-Mem (%.2f)", s.CABASpeedup(), s.HWMemSpeedup())
		}
	}
}

func BenchmarkFig08BandwidthUtilization(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		s, err := experiments.Fig8(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*s.BaseBWUtil(), "base-bw-%")
		b.ReportMetric(100*s.CABABWUtil(), "caba-bw-%")
		b.ReportMetric(100*s.MDHitRate, "md-hit-%")
		// Paper: utilization drops (53.6% -> 35.6%) and the MD cache hits
		// ~85% on average.
		if s.CABABWUtil() >= s.BaseBWUtil() {
			b.Errorf("compression must reduce bandwidth utilization: %.2f -> %.2f",
				s.BaseBWUtil(), s.CABABWUtil())
		}
		if s.MDHitRate < 0.5 {
			b.Errorf("MD hit rate %.2f implausibly low", s.MDHitRate)
		}
	}
}

func BenchmarkFig09Energy(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		s, err := experiments.Fig9(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(s.CABAEnergy(), "caba-energy-rel")
		b.ReportMetric(100*s.DRAMEnergyReduction, "dram-saving-%")
		// Paper: 22.2% total energy reduction, 29.5% DRAM power reduction.
		if s.DRAMEnergyReduction <= 0 {
			b.Errorf("compression must cut DRAM energy (got %.2f)", s.DRAMEnergyReduction)
		}
	}
}

func BenchmarkFig10Algorithms(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10and11(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanSpeedup[caba.CABABDI.Name], "bdi-x")
		b.ReportMetric(res.MeanSpeedup[caba.CABAFPC.Name], "fpc-x")
		b.ReportMetric(res.MeanSpeedup[caba.CABACPack.Name], "cpack-x")
		b.ReportMetric(res.MeanSpeedup[caba.CABABest.Name], "best-x")
	}
}

func BenchmarkFig11CompressionRatio(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10and11(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanRatio[caba.CABABDI.Name], "bdi-ratio")
		b.ReportMetric(res.MeanRatio[caba.CABAFPC.Name], "fpc-ratio")
		b.ReportMetric(res.MeanRatio[caba.CABACPack.Name], "cpack-ratio")
		b.ReportMetric(res.MeanRatio[caba.CABABest.Name], "best-ratio")
		// BestOfAll dominates every single algorithm by construction.
		for _, d := range []string{caba.CABABDI.Name, caba.CABAFPC.Name, caba.CABACPack.Name} {
			if res.MeanRatio[caba.CABABest.Name] < res.MeanRatio[d]-0.01 {
				b.Errorf("BestOfAll ratio %.2f below %s %.2f",
					res.MeanRatio[caba.CABABest.Name], d, res.MeanRatio[d])
			}
		}
	}
}

func BenchmarkFig12BWSensitivity(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig12(o)
		if err != nil {
			b.Fatal(err)
		}
		base := res.Mean[caba.Base.Name]
		cab := res.Mean[caba.CABABDI.Name]
		b.ReportMetric(base[0.5], "base-0.5x")
		b.ReportMetric(cab[1.0], "caba-1x")
		b.ReportMetric(base[2.0], "base-2x")
		// Paper shape: performance grows with bandwidth, and CABA at each
		// point beats (or matches) the baseline at the same point.
		if !(base[0.5] < base[1.0] && base[1.0] < base[2.0]) {
			b.Errorf("baseline must scale with bandwidth: %v", base)
		}
		if o.Scale >= 0.1 && (cab[0.5] < base[0.5]*0.80 || cab[1.0] < base[1.0]*0.80) {
			b.Errorf("CABA collapses under bandwidth scaling: caba=%v base=%v", cab, base)
		}
	}
}

func BenchmarkFig13CacheCompression(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig13(o)
		if err != nil {
			b.Fatal(err)
		}
		for name, m := range res.MeanSpeedup {
			b.ReportMetric(m, name+"-x")
		}
	}
}

func BenchmarkMDCacheHitRate(b *testing.B) {
	// Section 4.3.2's claim in isolation: 8KB 4-way MD cache hits ~85%.
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		s, err := experiments.Study789(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*s.MDHitRate, "md-hit-%")
	}
}

// --- micro-benchmarks: single-run simulation throughput ---

func benchOneApp(b *testing.B, app string, d caba.Design) {
	cfg := caba.QuickConfig()
	cfg.Scale = 0.05
	benchOneAppCfg(b, cfg, app, d)
}

func benchOneAppCfg(b *testing.B, cfg caba.Config, app string, d caba.Design) {
	for i := 0; i < b.N; i++ {
		res, err := caba.Run(cfg, d, app, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.IPC, "ipc")
		b.ReportMetric(float64(res.Cycles), "gpu-cycles")
	}
}

func BenchmarkSimBasePVC(b *testing.B)  { benchOneApp(b, "PVC", caba.Base) }
func BenchmarkSimCABAPVC(b *testing.B)  { benchOneApp(b, "PVC", caba.CABABDI) }
func BenchmarkSimBaseSSSP(b *testing.B) { benchOneApp(b, "sssp", caba.Base) }

// BenchmarkSimHotLoop measures the simulator's inner loop — issue,
// writeback ring, memory events, stall accounting — on a memory-bound
// kernel with the fixed seed, reporting allocations per run. This is the
// canary for hot-path allocation regressions: the quiescence cache and
// preallocation work dropped it several-fold, and BENCH_sim.json records
// the calibrated numbers.
func BenchmarkSimHotLoop(b *testing.B) {
	cfg := caba.QuickConfig()
	cfg.Scale = 0.05
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := caba.Run(cfg, caba.CABABDI, "sssp", 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.IPC, "ipc")
	}
}
func BenchmarkSimCABASSSP(b *testing.B) { benchOneApp(b, "sssp", caba.CABABDI) }

// BenchmarkSimCABAFPCMUM runs MUM under CABA-FPC at scale 0.015: the
// fig10-sweep benchmark workload's tail cell and the sentinel for the
// assist-warp trigger retry path. Most of its SM ticks hold a trigger
// queued behind a full AWT, so a retry scan that re-attempts queued
// triggers when no capacity has freed shows up here first.
func BenchmarkSimCABAFPCMUM(b *testing.B) {
	cfg := caba.QuickConfig()
	cfg.Scale = 0.015
	benchOneAppCfg(b, cfg, "MUM", caba.CABAFPC)
}

// BenchmarkSimMemoTBL runs TBL under CABA-Memo with Baseline() at scale
// 0.05: the compute-usecase benchmark workload's slowest cell and the
// sentinel for the SM's issue stage. TBL runs the same 1,396,800 warp
// instructions at every scale from 0.005 to 0.05, nearly all of them
// waiting on one busy SFU, so every issue slot scans warps whose
// verdict is already known, and each memoization probe needs the
// instruction's operand hash.
func BenchmarkSimMemoTBL(b *testing.B) {
	cfg := caba.Baseline()
	cfg.Scale = 0.05
	benchOneAppCfg(b, cfg, "TBL", caba.CABAMemo)
}

// BenchmarkSimPrefetchPVC runs PVC under the CABA-Prefetch design: the
// stride tables train on every L1 miss and the throttle gates nearly
// every trigger (PVC's access pattern gives the detector little to work
// with), so this times the use-case machinery's overhead on the miss
// path rather than its payoff. bench-compare gates it alongside the
// hot-loop sentinels: the per-miss training cost must stay flat.
func BenchmarkSimPrefetchPVC(b *testing.B) { benchOneApp(b, "PVC", caba.CABAPrefetch) }

// BenchmarkAblationDeployBW sweeps the AWC's deployment bandwidth — the
// structure that bounds how fast assist warps can be fed into the
// pipelines (Section 3.3). Starving it (1 instr/cycle) shows decompression
// becoming the fill bottleneck; the default (4) keeps CABA near the
// dedicated-logic designs.
func BenchmarkAblationDeployBW(b *testing.B) {
	for _, bw := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("deploy=%d", bw), func(b *testing.B) {
			cfg := caba.QuickConfig()
			cfg.Scale = 0.05
			cfg.AWDeployBW = bw
			for i := 0; i < b.N; i++ {
				res, err := caba.Run(cfg, caba.CABABDI, "CONS", 1)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.IPC, "ipc")
			}
		})
	}
}

func BenchmarkAblationStallClassifier(b *testing.B) {
	// Sanity ablation: issue-slot accounting must be conserved — the five
	// Figure 1 components partition all slots.
	cfg := caba.QuickConfig()
	cfg.Scale = 0.03
	for i := 0; i < b.N; i++ {
		res, err := caba.Run(cfg, caba.Base, "CONS", 1)
		if err != nil {
			b.Fatal(err)
		}
		var total uint64
		for _, v := range res.Stats.IssueSlots {
			total += v
		}
		want := res.Cycles * uint64(cfg.NumSMs) * uint64(cfg.NumSchedulers)
		if total != want {
			b.Fatalf("issue slots %d != cycles x slots %d", total, want)
		}
		br := res.Stats.IssueBreakdown()
		b.ReportMetric(100*br[stats.Active], "active-%")
	}
}
