package caba_test

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
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

// TestUseCaseGoldenEquivalence pins the tentpole invariant: with the
// assist use cases off (UseCompression, the zero value every paper
// design carries), runs are byte-identical to the recorded goldens —
// the prefetcher and result cache are never allocated, never consulted,
// and perturb no counter.
func TestUseCaseGoldenEquivalence(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	want := map[string]*caba.Metrics{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, design := range []caba.Design{caba.Base, caba.CABABDI} {
		design := design
		t.Run(design.Name, func(t *testing.T) {
			if design.UseCase != caba.UseCompression {
				t.Fatalf("paper design %s carries UseCase %v, want the zero value", design.Name, design.UseCase)
			}
			res, err := caba.Run(useCaseConfig(), design, "PVC", 1)
			if err != nil {
				t.Fatal(err)
			}
			w, ok := want["PVC/"+design.Name]
			if !ok {
				t.Fatalf("golden file has no entry for PVC/%s", design.Name)
			}
			if !reflect.DeepEqual(w, res.Stats) {
				for _, d := range w.Diff(res.Stats) {
					t.Errorf("use-cases-off run diverged from golden: %s", d)
				}
			}
			s := res.Stats
			for name, v := range map[string]uint64{
				"PrefetchTriggers":  s.PrefetchTriggers,
				"PrefetchThrottled": s.PrefetchThrottled,
				"PrefetchUseful":    s.PrefetchUseful,
				"MemoHits":          s.MemoHits,
				"MemoMisses":        s.MemoMisses,
				"MemoNoSlot":        s.MemoNoSlot,
				"MemoUpdates":       s.MemoUpdates,
			} {
				if v != 0 {
					t.Errorf("%s = %d with use cases off, want 0", name, v)
				}
			}
		})
	}
}

// TestUseCaseDeterminismGrid runs each use-case design plainly and again
// with every result-neutral knob on (periodic checkpoints, invariant
// audits, the flight recorder) and requires bit-identical statistics
// from both. Snapshots and audits read the stride tables and the result
// cache, so they must not perturb them.
func TestUseCaseDeterminismGrid(t *testing.T) {
	cases := []struct {
		design caba.Design
		app    string
		small  bool
	}{
		{caba.CABAPrefetch, "STRD", false},
		{caba.CABAMemo, "TBL", true},
		{caba.CABACombined, "STRD", false},
	}
	for _, c := range cases {
		c := c
		t.Run(c.design.Name+"/"+c.app, func(t *testing.T) {
			cfg := useCaseConfig()
			if c.small {
				cfg = smallMachine(cfg)
			}
			plain, err := caba.Run(cfg, c.design, c.app, 1)
			if err != nil {
				t.Fatalf("plain: %v", err)
			}
			observed := cfg
			observed.CheckpointEvery = 2_000
			observed.AuditEvery = 1_000
			observed.FlightRecorderDepth = 32
			saves := 0
			res, _, err := caba.RunResumable(context.Background(), observed, c.design, c.app, 1, nil,
				func(uint64, []byte) error { saves++; return nil })
			if err != nil {
				t.Fatalf("observed: %v", err)
			}
			if saves == 0 {
				t.Fatalf("no checkpoint taken in %d cycles", res.Cycles)
			}
			if !reflect.DeepEqual(plain.Stats, res.Stats) {
				for _, d := range plain.Stats.Diff(res.Stats) {
					t.Errorf("plain vs observed: %s", d)
				}
			}
		})
	}
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

// TestUseCaseSnapshotResume checkpoints a run with both use cases live
// (stride table trained, result cache populated, probes possibly in
// flight) and requires the resumed run to converge to the bit-identical
// result of the uninterrupted one — the serialized use-case state is
// part of the architected machine.
func TestUseCaseSnapshotResume(t *testing.T) {
	for _, c := range []struct {
		design caba.Design
		app    string
		small  bool
	}{
		{caba.CABAPrefetch, "STRD", false},
		{caba.CABAMemo, "TBL", true},
	} {
		c := c
		t.Run(c.design.Name+"/"+c.app, func(t *testing.T) {
			cfg := useCaseConfig()
			if c.small {
				cfg = smallMachine(cfg)
			}
			straight, err := caba.Run(cfg, c.design, c.app, 1)
			if err != nil {
				t.Fatal(err)
			}

			// Capture checkpoints at thirds of the run.
			ckCfg := cfg
			ckCfg.CheckpointEvery = straight.Cycles / 3
			if ckCfg.CheckpointEvery == 0 {
				t.Fatalf("run too short to checkpoint (%d cycles)", straight.Cycles)
			}
			var blobs [][]byte
			_, _, err = caba.RunResumable(context.Background(), ckCfg, c.design, c.app, 1, nil,
				func(cycle uint64, blob []byte) error {
					blobs = append(blobs, append([]byte(nil), blob...))
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if len(blobs) < 2 {
				t.Fatalf("captured %d checkpoints, want >= 2", len(blobs))
			}

			// Resume from a mid-run blob; the finish must match exactly.
			resumed, at, err := caba.RunResumable(context.Background(), cfg, c.design, c.app, 1,
				blobs[len(blobs)/2], nil)
			if err != nil {
				t.Fatal(err)
			}
			if at == 0 {
				t.Fatal("resume blob was rejected (restarted from cycle 0)")
			}
			if !reflect.DeepEqual(straight.Stats, resumed.Stats) {
				for _, d := range straight.Stats.Diff(resumed.Stats) {
					t.Errorf("resumed run diverged: %s", d)
				}
			}
		})
	}
}
