package caba_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

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

// TestObsGoldenEquivalence is the observability layer's core contract:
// turning every probe on — metrics sampling, stall attribution, trace
// export — must not change a single simulated statistic, with the
// deprecated SMWorkers field unset or set to 4 (it is ignored: SMs always
// tick serially, and the reference run leaves it unset). The reference
// run has the layer fully off; every instrumented variant must match it
// bit-for-bit, and the sampled series must be identical across variants.
// The internal/gpu per-cycle reference table checks the same series
// against ticking without the quiescence cache.
func TestObsGoldenEquivalence(t *testing.T) {
	ref, err := caba.Run(obsConfig(), caba.CABABDI, "PVC", 1)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if ref.Series != nil || ref.Stalls != nil {
		t.Fatal("observability off must leave Result.Series and Result.Stalls nil")
	}
	var refSeries *caba.MetricsSeries
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := obsConfig()
			cfg.SMWorkers = workers
			cfg.SampleEvery = 500
			cfg.AttributeStalls = true
			cfg.TraceFile = filepath.Join(t.TempDir(), "run.trace.json")
			res, err := caba.Run(cfg, caba.CABABDI, "PVC", 1)
			if err != nil {
				t.Fatalf("instrumented run: %v", err)
			}
			if res.Cycles != ref.Cycles || res.IPC != ref.IPC {
				t.Errorf("instrumented run: %d cycles IPC %v, reference: %d cycles IPC %v",
					res.Cycles, res.IPC, ref.Cycles, ref.IPC)
			}
			for _, d := range ref.Stats.Diff(res.Stats) {
				t.Errorf("stats diverge with observability on: %s", d)
			}
			if res.Series == nil || res.Series.Len() == 0 {
				t.Fatal("instrumented run produced no metrics samples")
			}
			if refSeries == nil {
				refSeries = res.Series
			} else if !reflect.DeepEqual(refSeries, res.Series) {
				t.Error("metrics series differs across variants; sampling must not depend on SMWorkers")
			}
		})
	}
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

// TestObsSnapshotResume: interrupting and resuming an instrumented run
// must reproduce the uninterrupted run's metrics series and stall
// attribution bit-for-bit — the sampler and attribution tables travel
// through the snapshot with the rest of the machine.
func TestObsSnapshotResume(t *testing.T) {
	cfg := obsConfig()
	cfg.Scale = 0.05
	cfg.CheckpointEvery = 2_000
	cfg.SampleEvery = 500
	cfg.AttributeStalls = true
	straight, err := caba.Run(cfg, caba.CABABDI, "PVC", 1)
	if err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "cell.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	defer close(done)
	go func() {
		for {
			if _, err := os.Stat(ckpt); err == nil {
				cancel()
				return
			}
			select {
			case <-done:
				return
			case <-time.After(200 * time.Microsecond):
			}
		}
	}()
	res, err := caba.RunCheckpointed(ctx, cfg, caba.CABABDI, "PVC", 1, ckpt)
	if err != nil {
		if !errors.Is(err, caba.ErrInterrupted) {
			t.Fatalf("interrupted run: %v, want ErrInterrupted", err)
		}
		res, err = caba.RunCheckpointed(context.Background(), cfg, caba.CABABDI, "PVC", 1, ckpt)
		if err != nil {
			t.Fatalf("resume: %v", err)
		}
	} else {
		t.Log("run completed before the interrupt landed")
	}
	if !reflect.DeepEqual(straight.Stats, res.Stats) {
		t.Error("resumed run statistics differ from the uninterrupted run")
	}
	if !reflect.DeepEqual(straight.Series, res.Series) {
		t.Error("resumed run metrics series differs from the uninterrupted run")
	}
	if !reflect.DeepEqual(straight.Stalls, res.Stalls) {
		t.Error("resumed run stall attribution differs from the uninterrupted run")
	}
}
