package gpu

import (
	"testing"

	"github.com/caba-sim/caba/internal/config"
	"github.com/caba-sim/caba/internal/isa"
	"github.com/caba-sim/caba/internal/timing"
)

// runBothModes runs the same kernel with the per-cycle reference (every SM
// runs its full tick every cycle) and with the quiescence cache, returning
// both simulators after Run. The caller compares errors and whatever else
// it cares about.
func runBothModes(t *testing.T, prog *isa.Program, ctas, ctaThreads int,
	params [4]uint64, maxCycles uint64, prep func(*Simulator)) (slow, fast *Simulator, slowErr, fastErr error) {
	t.Helper()
	build := func(perCycle bool) (*Simulator, error) {
		cfg := config.TestConfig()
		k := &Kernel{Prog: prog, GridCTAs: ctas, CTAThreads: ctaThreads, Params: params}
		sim, err := New(&cfg, config.DesignCABABDI, k)
		if err != nil {
			t.Fatal(err)
		}
		sim.perCycle = perCycle
		fillInput(sim, 4096, true)
		if prep != nil {
			prep(sim)
		}
		return sim, sim.Run(maxCycles)
	}
	slow, slowErr = build(true)
	fast, fastErr = build(false)
	return slow, fast, slowErr, fastErr
}

// TestDrainPhaseEquivalence ends a kernel on global stores so the run
// finishes with the store buffer and memory system still busy: the drain
// phase (grid exhausted, events outstanding) must reach Sys.Drained()
// under both tick modes with bit-identical statistics.
func TestDrainPhaseEquivalence(t *testing.T) {
	stride := uint64(64 * 4)
	slow, fast, serr, ferr := runBothModes(t, streamSumKernel(), 4, 64,
		[4]uint64{inBase, outBase, stride, 8}, 2_000_000, nil)
	if serr != nil || ferr != nil {
		t.Fatalf("runs failed: per-cycle %v, cached %v", serr, ferr)
	}
	for _, sim := range []*Simulator{slow, fast} {
		if !sim.Sys.Drained() {
			t.Error("memory system not drained after Run returned")
		}
		if sim.Q.Len() != 0 {
			t.Errorf("event queue not empty after Run: %d events", sim.Q.Len())
		}
	}
	if slow.S.Cycles != fast.S.Cycles {
		t.Errorf("drain completion cycle diverges: %d != %d", slow.S.Cycles, fast.S.Cycles)
	}
	for _, d := range slow.S.Diff(fast.S) {
		t.Errorf("stats diverge: %s", d)
	}
}

// TestWedgeDetectorEquivalence wedges a drained grid behind a far-future
// event that never delivers work: the idle-streak detector must fire with
// the identical error, at the identical cycle, under both tick modes,
// while the cached SMs replay their idle verdicts.
func TestWedgeDetectorEquivalence(t *testing.T) {
	// The dummy event parks far beyond the wedge horizon so Q.Len() stays
	// non-zero while every SM idles.
	prep := func(sim *Simulator) {
		sim.Cfg.WedgeLimit = 500
		sim.Q.Push(1_000_000, timing.Nop{})
	}
	slow, fast, serr, ferr := runBothModes(t, vecScaleKernel(), 2, 64,
		[4]uint64{inBase, outBase}, 2_000_000, prep)
	if serr == nil || ferr == nil {
		t.Fatalf("expected wedge errors, got per-cycle %v, cached %v", serr, ferr)
	}
	if serr.Error() != ferr.Error() {
		t.Errorf("wedge errors diverge:\n  per-cycle: %v\n  cached:    %v", serr, ferr)
	}
	if slow.cycle != fast.cycle {
		t.Errorf("wedge fires at different cycles: %d != %d", slow.cycle, fast.cycle)
	}
}
