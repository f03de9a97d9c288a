package caba_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	caba "github.com/caba-sim/caba"
)

// goldenPath holds the recorded statistics of a small reference sweep.
// Regenerate with:
//
//	GOLDEN_UPDATE=1 go test -run TestZeroFaultGolden .
const goldenPath = "testdata/golden_zero_fault.json"

// goldenRuns is the reference grid: one memory-bound app under the
// baseline and the CABA design, at the same scale/seed the equivalence
// tests use.
var goldenRuns = []struct {
	App     string
	Designs []caba.Design
}{
	{"PVC", []caba.Design{caba.Base, caba.CABABDI}},
}

func goldenConfig() caba.Config {
	cfg := caba.Baseline()
	cfg.Scale = 0.03
	return cfg
}

// TestZeroFaultGolden asserts that a run with no fault injection remains
// bit-identical to the recorded pre-fault-framework statistics: every
// counter of stats.Sim, including the energy model outputs, must match
// the golden file exactly. The golden designs are paper designs, which
// carry the zero UseCase (compression only), so the prefetcher and the
// result cache must stay off: their counters read 0. Each cell is an
// app/design subtest. scripts/bench.sh runs this as a preflight.
func TestZeroFaultGolden(t *testing.T) {
	update := os.Getenv("GOLDEN_UPDATE") != ""
	want := map[string]*caba.Metrics{}
	if !update {
		data, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("missing golden file (run with GOLDEN_UPDATE=1 to create): %v", err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]*caba.Metrics{}
	for _, g := range goldenRuns {
		t.Run(g.App, func(t *testing.T) {
			for _, design := range g.Designs {
				t.Run(design.Name, func(t *testing.T) {
					if design.UseCase != caba.UseCompression {
						t.Fatalf("paper design %s carries UseCase %v, want the zero value", design.Name, design.UseCase)
					}
					res, err := caba.Run(goldenConfig(), design, g.App, 1)
					if err != nil {
						t.Fatal(err)
					}
					key := g.App + "/" + design.Name
					got[key] = res.Stats
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
					if update {
						return
					}
					w, ok := want[key]
					if !ok {
						t.Fatalf("%s: not in golden file; regenerate with GOLDEN_UPDATE=1", key)
					}
					if !reflect.DeepEqual(w, res.Stats) {
						for _, d := range w.Diff(res.Stats) {
							t.Errorf("golden mismatch: %s", d)
						}
					}
				})
			}
		})
	}
	if !update {
		for key := range want {
			if _, ok := got[key]; !ok {
				t.Errorf("%s: in the golden file but not run", key)
			}
		}
		return
	}
	if t.Failed() {
		t.Fatalf("not writing %s: a cell failed", goldenPath)
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", goldenPath)
}
