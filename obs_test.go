package caba_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	caba "github.com/caba-sim/caba"
	"github.com/caba-sim/caba/internal/obs"
	"github.com/caba-sim/caba/internal/stats"
)

// obsConfig is the shared observed-run configuration: small enough to be
// quick, long enough that sampling windows, assist-warp activity and
// quiescent stretches all occur.
func obsConfig() caba.Config {
	cfg := caba.QuickConfig()
	cfg.Scale = 0.03
	return cfg
}

// TestStallAttributionSums pins the attribution exactness invariant: the
// per-(warp, cause) charges must account for every unissued scheduler
// slot exactly once — their machine-wide sum equals total issue slots
// minus issued ones, which in turn equals the classified non-Active slot
// counters. The quiescence cache's replayed ticks share the same charge
// sites as full ticks; the prefetch row adds assist warps that fire on
// demand misses and stall on MSHRs.
func TestStallAttributionSums(t *testing.T) {
	for _, c := range []struct {
		design caba.Design
		app    string
	}{
		{caba.CABABDI, "PVC"},
		{caba.CABAPrefetch, "STRD"},
	} {
		c := c
		t.Run(c.app+"_"+c.design.Name, func(t *testing.T) {
			cfg := obsConfig()
			cfg.AttributeStalls = true
			res, err := caba.Run(cfg, c.design, c.app, 1)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stalls == nil {
				t.Fatal("AttributeStalls set but Result.Stalls is nil")
			}
			slots := res.Cycles * uint64(cfg.NumSchedulers) * uint64(cfg.NumSMs)
			wantUnissued := slots - res.Stats.IssueSlots[stats.Active]
			var classified uint64
			for k, n := range res.Stats.IssueSlots {
				if stats.StallKind(k) != stats.Active {
					classified += n
				}
			}
			if classified != wantUnissued {
				t.Errorf("classified stall slots %d != cycles×sched×SMs − issued = %d", classified, wantUnissued)
			}
			if got := res.Stalls.Sum(); got != wantUnissued {
				t.Errorf("attribution sum %d != unissued slots %d (every unissued slot must be charged exactly once)", got, wantUnissued)
			}
			var rendered strings.Builder
			res.Stalls.RenderTable(&rendered, 5)
			if !strings.Contains(rendered.String(), "Stall attribution") {
				t.Error("RenderTable produced no report")
			}
		})
	}
}

// TestTraceSchemaPVC runs a small instrumented PVC cell, flushes the
// execution trace, and validates it against the Chrome-trace schema the
// exporter promises (Perfetto-loadable, balanced spans, monotone
// timestamps). `make trace-check` runs exactly this test.
func TestTraceSchemaPVC(t *testing.T) {
	cfg := obsConfig()
	cfg.TraceFile = filepath.Join(t.TempDir(), "pvc.trace.json")
	if _, err := caba.Run(cfg, caba.CABABDI, "PVC", 1); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(cfg.TraceFile)
	if err != nil {
		t.Fatalf("trace file not written: %v", err)
	}
	if err := obs.ValidateBytes(raw); err != nil {
		t.Errorf("trace fails schema validation: %v", err)
	}
}

// TestMetricsFileFormats checks both metrics sinks: a ".csv" path gets a
// CSV with the canonical header, any other path gets JSON Lines whose
// row count and first row match the in-memory series.
func TestMetricsFileFormats(t *testing.T) {
	dir := t.TempDir()
	cfg := obsConfig()
	cfg.Scale = 0.01
	cfg.SampleEvery = 500
	cfg.MetricsFile = filepath.Join(dir, "m.jsonl")
	res, err := caba.Run(cfg, caba.Base, "PVC", 1)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(cfg.MetricsFile)
	if err != nil {
		t.Fatalf("metrics file not written: %v", err)
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	if len(lines) != res.Series.Len() {
		t.Fatalf("JSONL has %d rows, series has %d", len(lines), res.Series.Len())
	}
	var row caba.MetricsSample
	if err := json.Unmarshal(lines[0], &row); err != nil {
		t.Fatalf("first JSONL row does not decode: %v", err)
	}
	if row != res.Series.At(0) {
		t.Errorf("first JSONL row %+v != series row %+v", row, res.Series.At(0))
	}

	cfg.MetricsFile = filepath.Join(dir, "m.csv")
	if _, err := caba.Run(cfg, caba.Base, "PVC", 1); err != nil {
		t.Fatal(err)
	}
	csvRaw, err := os.ReadFile(cfg.MetricsFile)
	if err != nil {
		t.Fatalf("CSV metrics file not written: %v", err)
	}
	if !bytes.HasPrefix(csvRaw, []byte("cycle,ipc,issue_active")) {
		t.Errorf("CSV missing canonical header, starts %q", csvRaw[:min(len(csvRaw), 40)])
	}
	if got := bytes.Count(csvRaw, []byte("\n")); got != res.Series.Len()+1 {
		t.Errorf("CSV has %d lines, want %d rows + header", got, res.Series.Len())
	}
}
