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
// counts and bit-identical statistics — with the fast-forward engine on
// or off.
func TestFaultInjectionDeterminism(t *testing.T) {
	var ref *caba.Result
	for _, ff := range []bool{true, false} {
		cfg := faultConfig()
		cfg.FastForward = ff
		res, err := caba.Run(cfg, caba.CABABDI, "PVC", 1)
		if err != nil {
			t.Fatalf("ff=%v: %v", ff, err)
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
			t.Errorf("ff=%v: campaign diverged: injected %d/%d detected %d/%d recovered %d/%d",
				ff, res.FaultsInjected, ref.FaultsInjected,
				res.FaultsDetected, ref.FaultsDetected,
				res.FaultsRecovered, ref.FaultsRecovered)
		}
		for _, d := range ref.Stats.Diff(res.Stats) {
			t.Errorf("ff=%v: stats diverge: %s", ff, d)
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
// determinism contract — same seed, same error, same cycle, with the
// fast-forward engine on or off.
func TestWedgeErrorDeterminism(t *testing.T) {
	msg := func(ff bool) string {
		cfg := faultConfig()
		cfg.FastForward = ff
		cfg.Faults = faults.Config{Seed: 7, ResponseDropRate: 0.5}
		_, err := caba.Run(cfg, caba.Base, "PVC", 1)
		if err == nil {
			t.Fatalf("ff=%v: expected a wedge", ff)
		}
		return err.Error()
	}
	if ref, got := msg(false), msg(true); got != ref {
		t.Errorf("wedge error differs with fast-forward on:\n  ref %s\n  got %s", ref, got)
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
