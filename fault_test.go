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

// TestDroppedResponsesWedge: with every memory response dropped, the
// waiting warps can never make progress. The wedge detector must convert
// the would-be infinite hang into a structured error rather than spinning
// to the cycle limit.
func TestDroppedResponsesWedge(t *testing.T) {
	cfg := caba.Baseline()
	cfg.Scale = 0.03
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
