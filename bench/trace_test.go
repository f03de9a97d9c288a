package main

import (
	"testing"
	"time"

	"github.com/caba-sim/caba/internal/farm"
)

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "cell", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: [10,50) covered once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // only [90,100) lies inside the parent
		{ID: 5, Parent: 3, Name: "b.inner", Start: 25, End: 35},
		{ID: 6, Parent: 0, Name: "other", Start: 200, End: 230},
	}
	want := []int64{100 - 40 - 10, 20, 30 - 10, 30, 10, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestSpanLayerMetricsAttributeCellTime(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Cell: 0, Name: "cell", Start: 0, End: 100 * ms},
		{ID: 2, Cell: 0, Parent: 1, Name: "workloads.instantiate", Start: 0, End: 2 * ms},
		{ID: 3, Cell: 0, Parent: 1, Name: "gpu.new", Start: 2 * ms, End: 4 * ms},
		{ID: 4, Cell: 0, Parent: 1, Name: "workloads.prepare", Start: 4 * ms, End: 10 * ms},
		{ID: 5, Cell: 0, Parent: 1, Name: "gpu.run", Start: 10 * ms, End: 95 * ms},
		{ID: 6, Cell: -1, Name: "farm.POST /lease", Start: 0, End: 3 * ms},
	}
	m := spanLayerMetrics(spans, 1000, 500)
	for name, want := range map[string]float64{
		"workloads.setup_frac":   0.10,
		"trace.layer_cover_frac": 0.95, // 5 ms of the cell is outside every layer call
		"gpu.run_ms_p50":         85,
		"gpu.ns_per_cycle":       85e6 / 1000,
		"gpu.ns_per_warp_instr":  85e6 / 500,
		"farm.lease_ms_p50":      3,
	} {
		if got := m[name]; !near(got, want) {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
}

func TestPairProgressMatchesLeaseToDone(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	ev := func(ms int, typ, key string) timedEvent {
		return timedEvent{at: at(ms), ProgressEvent: farm.ProgressEvent{Type: typ, Key: key}}
	}
	events := []timedEvent{
		ev(0, "queued", "a"), ev(0, "queued", "b"), ev(0, "queued", "c"), ev(0, "queued", "d"),
		ev(5, "lease", "a"),
		ev(6, "lease", "b"),
		ev(20, "checkpoint", "a"),
		ev(30, "requeue", "b"), // b's first attempt was released
		ev(40, "done", "a"),
		ev(45, "lease", "b"),
		ev(90, "done", "b"),
		ev(95, "lease", "c"), // c's done event was dropped
		// d was never leased on the stream
	}
	timing, counts := pairProgress(events, []string{"a", "b", "c", "d"})
	if got := timing["a"]; got.lease != at(5) || got.done != at(40) || got.queued != at(0) {
		t.Errorf("a = %+v", got)
	}
	if got := timing["b"]; got.lease != at(45) || got.done != at(90) {
		t.Errorf("b latency must run from the lease that completed it: %+v", got)
	}
	if _, ok := timing["c"]; ok {
		t.Error("c has no done event but got a timing")
	}
	want := progressCounts{checkpoints: 1, requeues: 1, dropped: 2}
	if counts != want {
		t.Errorf("counts = %+v, want %+v", counts, want)
	}
}
