package main

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	caba "github.com/caba-sim/caba"
)

func TestKernelDoesNotAllocate(t *testing.T) {
	k := newKernelState()
	if n := testing.AllocsPerRun(5, k.run); n != 0 {
		t.Errorf("reference kernel allocates %g times per run", n)
	}
}

func TestRefClockScalesByLowerQuartile(t *testing.T) {
	c := newRefClock()
	if s := c.scale(); s != 0 {
		t.Errorf("scale without timings = %g, want 0", s)
	}
	c.ms = []float64{5, 1, 4, 2, 3, 9, 7} // quantiles(n=4) of 1..5,7,9: 2, 4, 7
	if s := c.scale(); !near(s, kernelRefMS/2) {
		t.Errorf("scale = %g, want kernelRefMS over the lower quartile 2", s)
	}
	c.reset()
	if n := c.samples(); n != 0 {
		t.Errorf("%d timings after reset, want 0", n)
	}
}

func TestRunPoolIsAClosedLoopWithQuietPoints(t *testing.T) {
	var cells []cellSpec
	for i := 0; i < 40; i++ {
		cells = append(cells, cellSpec{Index: i})
	}
	c := newRefClock()
	var inFlight, most atomic.Int32
	outs, window := runPool(2, cells, c, func(cellSpec) (*caba.Result, error) {
		n := inFlight.Add(1)
		for m := most.Load(); n > m && !most.CompareAndSwap(m, n); m = most.Load() {
		}
		time.Sleep(5 * time.Millisecond)
		inFlight.Add(-1)
		return &caba.Result{}, nil
	})
	if most.Load() != 2 {
		t.Errorf("at most %d cells in flight, want 2", most.Load())
	}
	for i, o := range outs {
		if o.spec.Index != i || o.res == nil {
			t.Fatalf("outcome %d is cell %d (result %v), want cell %d in dispatch order", i, o.spec.Index, o.res, i)
		}
	}
	if len(outs) != len(cells) || window < 0.1 {
		t.Errorf("%d outcomes in %.2f s, want %d in at least 0.1 s", len(outs), window, len(cells))
	}
	if n := c.samples(); n < quietTimings || n%quietTimings != 0 {
		t.Errorf("%d kernel timings, want whole quiet points of %d, at least the first", n, quietTimings)
	}
}

func TestRefClockQuietPointsConcurrently(t *testing.T) {
	c := newRefClock()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.quiet()
			c.quiet()
		}()
	}
	wg.Wait()
	if n := c.samples(); n != 8*quietTimings {
		t.Fatalf("%d timings, want %d", n, 8*quietTimings)
	}
	if s := c.scale(); s <= 0 {
		t.Errorf("scale = %g, want > 0", s)
	}
}
