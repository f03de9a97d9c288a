package main

import (
	"math"
	"testing"

	caba "github.com/caba-sim/caba"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileInterpolates(t *testing.T) {
	vs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5} // 1..10, unsorted
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 5.5}, {90, 9.1}, {100, 10}, {25, 3.25},
	} {
		if got := percentile(vs, c.p); !near(got, c.want) {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %g, want 0", got)
	}
	if vs[0] != 10 {
		t.Error("percentile sorted its input in place")
	}
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{200, 95}, {100, 90}, {120, 100 * (1 - 10.0/120)}, {11, 100.0 / 11}, {10, 0}, {0, 0}} {
		if got := tailPercentile(c.n); !near(got, c.want) {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestMakespanReplaysTheClosedLoop(t *testing.T) {
	for _, c := range []struct {
		costs []float64
		n     int
		want  float64
	}{
		{[]float64{1, 2, 3}, 1, 6},
		// Two executors: 1 and 2 start at once, 3 waits for the first to
		// free (t=1) and ends at 4, 1 waits for the second (t=2).
		{[]float64{1, 2, 3, 1}, 2, 4},
		// A straggler dispatched last leaves the other executor idle.
		{[]float64{1, 1, 5}, 2, 6},
		{nil, 2, 0},
	} {
		if got := makespan(c.costs, c.n); !near(got, c.want) {
			t.Errorf("makespan(%v, %d) = %g, want %g", c.costs, c.n, got, c.want)
		}
	}
}

// The expected values are Python's statistics.quantiles(data, n=4).
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{3.5, 1.25, 9, 4, 2}, [3]float64{1.625, 3.5, 6.5}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(c.data)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %g %g %g, want %v", c.data, q1, q2, q3, c.want)
		}
	}
}

func TestSpeedupsPairBaseTwins(t *testing.T) {
	res := func(cycles uint64) *caba.Result { return &caba.Result{Cycles: cycles} }
	outs := []cellOutcome{
		{spec: spec("PVC", "Base", 1), res: res(100)},
		{spec: spec("PVC", "CABA-BDI", 1), res: res(50)},
		{spec: spec("PVC", "CABA-FPC", 1), res: res(200)},
		{spec: spec("PVC", "CABA-BDI", 2), res: res(10)}, // no Base twin at seed 2
		{spec: spec("MM", "CABA-BDI", 1)},                // failed cell
	}
	if got := geomean(speedups(outs, "")); !near(got, 1) {
		t.Errorf("geomean of 2x and 0.5x = %g, want 1", got)
	}
	if got := speedups(outs, "CABA-BDI"); len(got) != 1 || !near(got[0], 2) {
		t.Errorf("CABA-BDI speedups = %v, want [2]", got)
	}
}

func spec(app, design string, seed int64) cellSpec {
	return cellSpec{App: app, Design: caba.Design{Name: design}, Seed: seed}
}

func TestHDPercentile(t *testing.T) {
	// The wanted values come from integrating the Beta weights with 2000
	// midpoints per interval.
	vs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5.5}, {25, 2.99869}, {90, 9.43512}} {
		if got := hdPercentile(vs, c.p); math.Abs(got-c.want) > 2.5e-3 {
			t.Errorf("hdPercentile(1..10, %g) = %.5f, want %g", c.p, got, c.want)
		}
	}
	// A step in the sorted values: one order statistic jumps across it
	// when a single value moves, the estimate moves by a fraction.
	step := []float64{10, 10, 10, 10, 10, 20, 20, 20, 20, 20, 20}
	moved := append([]float64{10}, step[:10]...) // one 20 became a 10
	if d := hdPercentile(moved, 50) - hdPercentile(step, 50); d > 0 || d < -5 {
		t.Errorf("estimate moved by %g across the step, want a fraction of the 10 a percentile jumps", d)
	}
	if got := hdPercentile([]float64{3, 1, 2}, 0); got != 1 {
		t.Errorf("p0 of three = %g, want the minimum via percentile", got)
	}
}
