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
	App    string
	Design caba.Design
}{
	{"PVC", caba.Base},
	{"PVC", caba.CABABDI},
}

func goldenConfig() caba.Config {
	cfg := caba.Baseline()
	cfg.Scale = 0.03
	return cfg
}

// TestZeroFaultGolden asserts that a run with no fault injection remains
// bit-identical to the recorded pre-fault-framework statistics: every
// counter of stats.Sim, including the energy model outputs, must match
// the golden file exactly. scripts/bench.sh runs this as a preflight.
func TestZeroFaultGolden(t *testing.T) {
	got := map[string]*caba.Metrics{}
	for _, g := range goldenRuns {
		res, err := caba.Run(goldenConfig(), g.Design, g.App, 1)
		if err != nil {
			t.Fatalf("%s/%s: %v", g.App, g.Design.Name, err)
		}
		got[g.App+"/"+g.Design.Name] = res.Stats
	}
	if os.Getenv("GOLDEN_UPDATE") != "" {
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
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with GOLDEN_UPDATE=1 to create): %v", err)
	}
	want := map[string]*caba.Metrics{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: missing from current run set", key)
			continue
		}
		if !reflect.DeepEqual(w, g) {
			for _, d := range w.Diff(g) {
				t.Errorf("%s: golden mismatch: %s", key, d)
			}
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: not in golden file; regenerate with GOLDEN_UPDATE=1", key)
		}
	}
}
