package main

import (
	"testing"
	"time"
)

func TestRunLengthIsWholePassesFromSeconds(t *testing.T) {
	w := &workload{apps: []string{"PVC", "MM"}, designs: allWorkloads[0].designs[:2], passSeconds: 4}
	for _, c := range []struct {
		seconds, maxCells, passes, cells int
	}{
		{1, 0, 1, 4},          // at least one pass
		{10 * reps, 0, 3, 12}, // round(2.5) = 3
		{9 * reps, 0, 2, 8},
		{20 * reps, 6, 2, 6}, // the cap cuts the second pass short
	} {
		passes := w.cells(runOpts{seed: 7, seconds: time.Duration(c.seconds) * time.Second, maxCells: c.maxCells})
		last := repCells(passes, reps-1)
		if len(passes) != c.passes || len(last) != c.cells {
			t.Errorf("seconds %d cap %d: %d passes, %d cells; want %d, %d", c.seconds, c.maxCells, len(passes), len(last), c.passes, c.cells)
			continue
		}
		for i, cell := range last {
			if cell.Index != i || cell.Rep != reps-1 || cell.Seed != 7+int64(cell.Pass) {
				t.Errorf("cell %d: index %d rep %d pass %d seed %d", i, cell.Index, cell.Rep, cell.Pass, cell.Seed)
			}
		}
	}
}
