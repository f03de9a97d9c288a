package gpu

import (
	"math/bits"

	"github.com/caba-sim/caba/internal/core"
	"github.com/caba-sim/caba/internal/isa"
)

// regMask aliases the framework's scoreboard bitset (core.RegMask), which
// is shared with AWT entries so both warp kinds scoreboard without
// allocation.
type regMask = core.RegMask

// ctaCtx is one resident thread block on an SM.
type ctaCtx struct {
	id        int // CTA index within the grid
	shared    []byte
	warps     []*warpCtx
	liveWarps int
	atBarrier int
}

// warpCtx is one hardware warp slot.
type warpCtx struct {
	id   int // slot index within the SM
	cta  *ctaCtx
	exec *core.Exec
	sb   regMask

	// inFlight counts issued-but-not-retired instructions (for drain).
	inFlight int
	// pendingLoads counts outstanding global loads (the scoreboard blocks
	// dependents; independent later loads may issue, bounded by the MSHR).
	pendingLoads int
	// replay is the load whose overflow lines are still waiting for MSHR
	// slots; a warp has at most one.
	replay *loadReq
	// lastIssueCycle orders warps for the GTO "oldest" criterion.
	lastIssueCycle uint64
	// memoKey caches memoKeyFor over the current instruction while
	// memoKeyOK: the hash reads only the PC and this warp's registers,
	// which change only when the warp steps (SM.stepped clears it).
	memoKey   uint64
	memoKeyOK bool
	// memoPending marks a warp whose scoreboard holds the destinations of
	// an in-flight memoization probe: its dependence stalls are the assist
	// replay's latency, which the attribution charges as CauseMemoWait
	// instead of CauseScoreboard. Set with the probe trigger, cleared by
	// finishMemoProbe, serialized with the SM's use-case section.
	memoPending bool
}

// loadReq tracks one warp's in-flight global load (possibly several cache
// lines after coalescing).
type loadReq struct {
	warp         *warpCtx
	sop          *isa.Superop
	linesPending int
	issued       uint64
	// todo holds coalesced lines that could not allocate MSHR entries at
	// issue and await replay.
	todo []uint64
}

// popcount32 counts set bits in a lane mask.
func popcount32(m uint32) int { return bits.OnesCount32(m) }

// bit is the warp's slot bit in the SM's scan masks.
func (w *warpCtx) bit() uint64 { return 1 << uint(w.id) }

// resident reports whether w's slot holds a warp.
func (sm *SM) resident(w *warpCtx) bool { return sm.scan.valid&w.bit() != 0 }

// scanMasks are the SM's per-slot warp state, one bit per warp slot
// (Config.Validate caps MaxWarpsPerSM at 64): which slots hold a resident
// warp, and the issue stage's verdicts. A set verdict bit is always true
// of architected state, so the issue scan may skip the warp and raise the
// flag a probe would raise; a clear bit claims nothing. The verdicts are
// derived state: LoadState zeroes them, and Simulator.Audit checks every
// set bit ("issue-scan").
type scanMasks struct {
	// valid is the slot's residency, its only record: set by placeCTA,
	// cleared by retireCTAIfDone (which also clear the slot's verdicts),
	// saved and restored with the warps by SaveState/LoadState.
	valid uint64
	// dep: the warp's current instruction conflicts with its own
	// scoreboard. Monotone until a scoreboard bit clears — a stalled warp
	// cannot step, and only its own issue adds bits — so it is cleared
	// exactly where w.sb loses bits: wbPop, loadLineDone, the zero-lane
	// load cancel in issueMemory and finishMemoProbe.
	dep uint64
	// idle: the warp has no current instruction (done or at a barrier)
	// until a barrier release (handleControl, noteWarpDone).
	idle uint64
	// sfu: the warp is free of scoreboard conflicts and its current
	// instruction is ClassSFU, so only the SFU port can block it. It holds
	// until the warp steps (SM.stepped): nothing else moves its PC or adds
	// scoreboard bits. Memory ops get no such bit: on the memory-bound
	// workloads the probes it would save made no measurable difference
	// to a cell's time (EXPERIMENTS.md).
	sfu uint64
}
