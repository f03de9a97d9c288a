package caba_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	caba "github.com/caba-sim/caba"
	"github.com/caba-sim/caba/internal/faults"
)

// faultConfig is a small CABA run with bit-flip, metadata-corruption and
// response-delay injection active. Response DROPS are deliberately absent
// here: they wedge warps by design and belong to the wedge tests below.
func faultConfig() caba.Config {
	cfg := caba.Baseline()
	cfg.Scale = 0.03
	cfg.Faults = faults.Config{
		Seed:              42,
		BitFlipRate:       0.05,
		MDCorruptRate:     0.02,
		ResponseDelayRate: 0.01,
	}
	return cfg
}

// TestFaultInjectionDeterminism: the same fault seed and config must
// produce the identical fault campaign — same injected/detected/recovered
// counts and bit-identical statistics — on every run.
func TestFaultInjectionDeterminism(t *testing.T) {
	var ref *caba.Result
	for run := 1; run <= 2; run++ {
		res, err := caba.Run(faultConfig(), caba.CABABDI, "PVC", 1)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if ref == nil {
			ref = res
			if res.FaultsInjected == 0 {
				t.Fatal("no faults injected; the campaign config is not exercising the sites")
			}
			if res.FaultsDetected == 0 || res.FaultsRecovered == 0 {
				t.Fatalf("faults injected (%d) but detected=%d recovered=%d",
					res.FaultsInjected, res.FaultsDetected, res.FaultsRecovered)
			}
			t.Logf("campaign: %d injected, %d detected, %d recovered",
				res.FaultsInjected, res.FaultsDetected, res.FaultsRecovered)
			continue
		}
		if res.FaultsInjected != ref.FaultsInjected ||
			res.FaultsDetected != ref.FaultsDetected ||
			res.FaultsRecovered != ref.FaultsRecovered {
			t.Errorf("run %d: campaign diverged: injected %d/%d detected %d/%d recovered %d/%d",
				run, res.FaultsInjected, ref.FaultsInjected,
				res.FaultsDetected, ref.FaultsDetected,
				res.FaultsRecovered, ref.FaultsRecovered)
		}
		for _, d := range ref.Stats.Diff(res.Stats) {
			t.Errorf("run %d: stats diverge: %s", run, d)
		}
	}
}

// TestDroppedResponsesWedge: with every memory response dropped, the
// waiting warps can never make progress. The wedge detector must convert
// the would-be infinite hang into a structured error rather than spinning
// to the cycle limit.
func TestDroppedResponsesWedge(t *testing.T) {
	cfg := faultConfig()
	cfg.Faults = faults.Config{Seed: 7, ResponseDropRate: 1.0}
	_, err := caba.Run(cfg, caba.Base, "PVC", 1)
	if err == nil {
		t.Fatal("run completed despite dropping every response")
	}
	if !strings.Contains(err.Error(), "wedged") {
		t.Fatalf("err = %v, want a wedge diagnosis", err)
	}
	if !strings.Contains(err.Error(), "dropped") {
		t.Errorf("err = %v, want it to count dropped responses", err)
	}
}

// TestWedgeErrorDeterminism: the wedge diagnosis itself is part of the
// determinism contract — same seed, same error, same cycle.
func TestWedgeErrorDeterminism(t *testing.T) {
	msg := func() string {
		cfg := faultConfig()
		cfg.Faults = faults.Config{Seed: 7, ResponseDropRate: 0.5}
		_, err := caba.Run(cfg, caba.Base, "PVC", 1)
		if err == nil {
			t.Fatal("expected a wedge")
		}
		return err.Error()
	}
	if ref, got := msg(), msg(); got != ref {
		t.Errorf("wedge error differs between two runs of one seed:\n  first  %s\n  second %s", ref, got)
	}
}

// TestRunContextDeadline: a context deadline interrupts a run and the
// error wraps both the context cause and ErrInterrupted.
func TestRunContextDeadline(t *testing.T) {
	cfg := caba.Baseline()
	cfg.Scale = 0.05
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := caba.RunContext(ctx, cfg, caba.CABABDI, "PVC", 1)
	if err == nil {
		t.Fatal("run completed despite a 1ms deadline")
	}
	if !errors.Is(err, context.DeadlineExceeded) || !errors.Is(err, caba.ErrInterrupted) {
		t.Fatalf("err = %v, want DeadlineExceeded wrapping ErrInterrupted", err)
	}
}
