package caba_test

import (
	"testing"

	caba "github.com/caba-sim/caba"
)

// useCaseConfig is the small reference machine the use-case tests run
// on: golden scale, full Baseline mechanisms.
func useCaseConfig() caba.Config {
	cfg := caba.Baseline()
	cfg.Scale = 0.03
	return cfg
}

// smallMachine shrinks per-SM thread capacity so compute-bound apps
// (whose size scales with machine fill, not Config.Scale) finish fast.
func smallMachine(cfg caba.Config) caba.Config {
	cfg.MaxThreadsPerSM = 512
	return cfg
}

// TestPrefetchWinsOnSTRD pins the acceptance claim for the prefetch use
// case: on the low-occupancy strided stream, assist-warp prefetching
// fires, fills lines demand later hits, and measurably reduces cycles.
func TestPrefetchWinsOnSTRD(t *testing.T) {
	base, err := caba.Run(useCaseConfig(), caba.Base, "STRD", 1)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := caba.Run(useCaseConfig(), caba.CABAPrefetch, "STRD", 1)
	if err != nil {
		t.Fatal(err)
	}
	if pf.Stats.PrefetchTriggers == 0 {
		t.Error("no prefetch triggers fired")
	}
	if pf.Stats.PrefetchUseful == 0 {
		t.Error("no prefetched line was ever hit by demand")
	}
	if pf.Cycles >= base.Cycles {
		t.Errorf("prefetch did not win: %d cycles vs base %d", pf.Cycles, base.Cycles)
	}
}

// TestMemoizationWinsOnTBL pins the acceptance claim for the memoization
// use case: on the SFU-bound repeated-operand kernel, result-cache
// probes add SFU throughput past the port's initiation interval and
// measurably reduce cycles.
func TestMemoizationWinsOnTBL(t *testing.T) {
	cfg := smallMachine(useCaseConfig())
	base, err := caba.Run(cfg, caba.Base, "TBL", 1)
	if err != nil {
		t.Fatal(err)
	}
	memo, err := caba.Run(cfg, caba.CABAMemo, "TBL", 1)
	if err != nil {
		t.Fatal(err)
	}
	if memo.Stats.MemoHits == 0 {
		t.Error("no memo probes launched")
	}
	if memo.Stats.MemoUpdates == 0 {
		t.Error("no results were ever installed")
	}
	if memo.Cycles >= base.Cycles {
		t.Errorf("memoization did not win: %d cycles vs base %d", memo.Cycles, base.Cycles)
	}
}
