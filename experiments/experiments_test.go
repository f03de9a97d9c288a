package experiments

import (
	"bytes"
	"context"
	"io"
	"math"
	"strings"
	"testing"

	caba "github.com/caba-sim/caba"
)

func TestSuites(t *testing.T) {
	if got := len(Fig1Suite()); got != 27 {
		t.Errorf("Fig1 suite = %d apps, want 27", got)
	}
	if got := len(CompressSuite()); got != 20 {
		t.Errorf("compression suite = %d apps, want 20", got)
	}
}

func TestAggregates(t *testing.T) {
	if g := geomean([]float64{1, 4}); math.Abs(g-2) > 1e-9 {
		t.Errorf("geomean = %v, want 2", g)
	}
	if geomean(nil) != 0 {
		t.Error("empty geomean must be 0")
	}
	if m := mean([]float64{1, 2, 3}); m != 2 {
		t.Errorf("mean = %v", m)
	}
}

func TestFig2NoSimulation(t *testing.T) {
	var buf bytes.Buffer
	o := Defaults(&buf)
	res, err := Fig2(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 27 {
		t.Errorf("rows = %d", len(res.Rows))
	}
	if res.Average <= 0 || res.Average >= 1 {
		t.Errorf("average unallocated = %v", res.Average)
	}
	if !strings.Contains(buf.String(), "paper: 24%") {
		t.Error("rendered output missing the paper reference")
	}
}

func TestTable1Rendering(t *testing.T) {
	var buf bytes.Buffer
	Table1(Defaults(&buf))
	for _, want := range []string{"15 SMs", "32 threads/warp", "gto scheduler", "GDDR5", "tCL=12", "48 warps/SM"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, buf.String())
		}
	}
}

func TestSweepTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	o := Options{Scale: 0.01, Seed: 1, Out: io.Discard}
	res, err := o.sweep([]string{"SCP"}, []caba.Design{caba.Base, caba.CABABDI}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results = %d", len(res))
	}
	for k, r := range res {
		if r.Cycles == 0 {
			t.Errorf("%v: empty result", k)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Defaults(nil)
	if o.out() == nil {
		t.Error("nil Out must map to a sink")
	}
	if o.workers() < 1 {
		t.Error("workers must be positive")
	}
	cfg := o.cfg()
	if cfg.Scale != o.Scale {
		t.Error("cfg must carry the scale")
	}
}

// TestFig14Hooked drives the use-case figure through a runHook that
// fabricates results, pinning the figure's shape: a speedup cell per
// (non-Base design x app), activity counters from the per-design stats,
// and a stall-shift entry per showcase app.
func TestFig14Hooked(t *testing.T) {
	var buf bytes.Buffer
	o := Options{Scale: 0.01, Seed: 1, Out: &buf}
	o.runHook = func(_ context.Context, _ caba.Config, design caba.Design, app string, _ int64) (*caba.Result, error) {
		ipc := 100.0
		st := &caba.Metrics{}
		switch design.Name {
		case caba.CABAPrefetch.Name:
			ipc = 110
			st.PrefetchTriggers, st.PrefetchUseful, st.PrefetchThrottled = 7, 5, 2
		case caba.CABAMemo.Name:
			ipc = 95
			st.MemoHits, st.MemoMisses, st.MemoUpdates = 11, 13, 3
		}
		return &caba.Result{App: app, Design: design.Name, Cycles: 1000, IPC: ipc, Stats: st}, nil
	}
	res, err := Fig14(o)
	if err != nil {
		t.Fatal(err)
	}
	apps := UseCaseSuite()
	for _, d := range []string{caba.CABAPrefetch.Name, caba.CABAMemo.Name, caba.CABACombined.Name} {
		if got := len(res.Speedup[d]); got != len(apps) {
			t.Errorf("%s: %d speedup cells, want %d", d, got, len(apps))
		}
	}
	if sp := res.Speedup[caba.CABAPrefetch.Name]["STRD"]; math.Abs(sp-1.1) > 1e-9 {
		t.Errorf("prefetch speedup = %v, want 1.1", sp)
	}
	if sp := res.Speedup[caba.CABAMemo.Name]["TBL"]; math.Abs(sp-0.95) > 1e-9 {
		t.Errorf("memo speedup = %v, want 0.95 (losses must be reported, not clipped)", sp)
	}
	if res.Prefetch["STRD"] != [3]uint64{7, 5, 2} {
		t.Errorf("prefetch activity = %v", res.Prefetch["STRD"])
	}
	if res.Memo["TBL"] != [3]uint64{11, 13, 3} {
		t.Errorf("memo activity = %v", res.Memo["TBL"])
	}
	for _, app := range []string{"STRD", "TBL"} {
		if _, ok := res.StallShift[app]; !ok {
			t.Errorf("no stall-shift entry for showcase %s", app)
		}
	}
	if out := buf.String(); !strings.Contains(out, "Figure 14") || !strings.Contains(out, "stall shift") {
		t.Errorf("rendered output incomplete:\n%s", out)
	}
}
