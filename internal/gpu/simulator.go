package gpu

import (
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/caba-sim/caba/internal/compress"
	"github.com/caba-sim/caba/internal/config"
	"github.com/caba-sim/caba/internal/core"
	"github.com/caba-sim/caba/internal/mem"
	"github.com/caba-sim/caba/internal/obs"
	"github.com/caba-sim/caba/internal/stats"
	"github.com/caba-sim/caba/internal/timing"
)

// defaultWedgeLimit is the consecutive-idle-drain-cycle budget used when
// Config.WedgeLimit is zero.
const defaultWedgeLimit = 10_000_000

// ErrInterrupted is wrapped by Run's error when Interrupt() stopped the
// simulation before completion.
var ErrInterrupted = errors.New("interrupted")

// Simulator is one GPU: cores, CABA framework, and the memory system, run
// against one kernel under one design.
type Simulator struct {
	Cfg    *config.Config
	Design config.Design
	Kernel *Kernel

	Q   *timing.Queue
	S   *stats.Sim
	Mem *mem.Memory
	Dom *mem.Domain
	Sys *mem.System
	AWS *core.Store

	sms        []*SM
	nextCTA    int
	cycle      uint64
	awtEntries int // AWT capacity per SM, register-budget limited

	occ Occupancy

	// perCycle turns off the SMs' quiescence caches, so every SM runs its
	// full tick every cycle. It is the reference the cache is tested
	// against; only tests set it.
	perCycle bool

	// interrupted is set asynchronously by Interrupt(); Run polls it and
	// returns an ErrInterrupted-wrapping error. It is the only simulator
	// state another goroutine may touch during Run.
	interrupted atomic.Bool

	// OnCheckpoint receives the sealed snapshot blob at every
	// Config.CheckpointEvery boundary (the hook owns persistence; a nil
	// hook disables checkpointing). An error aborts the run.
	OnCheckpoint func(cycle uint64, blob []byte) error

	// idleStreak is the drain-phase wedge counter. It is a field (not a
	// Run local) because it is part of the architectural state a snapshot
	// must carry for bit-identical resume across a checkpoint taken
	// during the final memory drain.
	idleStreak int
	// restored marks a simulator populated by LoadState: Run then resumes
	// from the snapshot cycle instead of dispatching the grid from zero.
	restored bool
	// snapSize is the payload length of the last checkpoint saved or
	// loaded; SaveState sizes its encoder from it (with an eighth spare),
	// so a checkpoint is written once instead of copied at every doubling.
	snapSize int
	// Maintenance schedule (checkpoints and invariant audits). nextMaint
	// is min(nextCkpt, nextAudit) so the run loop pays a single compare
	// per iteration; all three are never when the knobs are off.
	nextCkpt  uint64
	nextAudit uint64
	nextMaint uint64

	// frSim is the simulator-level flight-recorder ring (nil when
	// Config.FlightRecorderDepth is zero).
	frSim *flightRing

	// smp drives the metrics time-series (nil when Config.SampleEvery is
	// zero); it runs on the main goroutine only, reading cumulative
	// counters at window boundaries. tr is the run's trace recorder (nil
	// when Config.TraceFile is empty): each SM writes its own shard, the
	// memory system writes the last one, all on determinism-safe paths.
	smp *sampler
	tr  *obs.Trace

	// decompMismatches counts assist-warp decompressions whose output no
	// longer matched the backing store. It is not a stats.Sim field, so
	// the Stats JSON keeps its shape.
	decompMismatches uint64
}

// Interrupt asks a running Run to stop at the next poll point (every
// 1024 simulated cycles). Safe to call from any goroutine; caba's
// context-aware entry points use it to implement deadlines without
// leaking the simulation goroutine.
func (sim *Simulator) Interrupt() { sim.interrupted.Store(true) }

// sharedLibrary is built once: routines are immutable.
var sharedLibrary = core.BuildLibrary()

// New builds a simulator. The caller populates memory (via Mem) and, for
// compressing designs, precompresses input buffers (via Dom.Precompress)
// before Run.
func New(cfg *config.Config, design config.Design, k *Kernel) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := k.Validate(cfg); err != nil {
		return nil, err
	}
	sim := &Simulator{
		Cfg:    cfg,
		Design: design,
		Kernel: k,
		Q:      &timing.Queue{},
		S:      &stats.Sim{},
		Mem:    mem.NewMemory(),
		AWS:    sharedLibrary,
	}
	sim.frSim = newFlightRing(cfg.FlightRecorderDepth)
	sim.Dom = mem.NewDomain(sim.Mem, design.Alg)
	sim.Sys = mem.NewSystem(cfg, design, sim.Q, sim.S, sim.Dom)
	sim.Sys.OnFill = func(smID int, lineAddr uint64, user any) {
		sim.sms[smID].onFill(lineAddr, user)
	}
	// Occupancy is computed without the assist-warp reservation: assist
	// warps live in the statically unallocated register space (Figure 2);
	// when that space is tight, the number of *concurrent* assist warps
	// shrinks rather than the parent occupancy (Section 3.2.2 gives the
	// designer both options; this is the one that avoids occupancy loss).
	assistRegs := 0
	if design.Decomp == config.DecompCABA || design.AssistUseCases() {
		assistRegs = sim.assistRegDemand()
	}
	sim.occ = ComputeOccupancy(cfg, k, 0)
	awtEntries := cfg.MaxWarpsPerSM
	if assistRegs > 0 {
		unallocated := cfg.RegFilePerSM - sim.occ.RegsAllocated
		byRegs := unallocated / (assistRegs * core.WarpSize)
		// Register-tight kernels still get a minimum assist-warp pool;
		// the compiler covers the shortfall with spills (Section 3.2.2).
		// The pool must roughly match the MSHR depth or decompression
		// queueing dominates fill latency.
		if byRegs < 16 {
			byRegs = 16
		}
		if byRegs < awtEntries {
			awtEntries = byRegs
		}
	}
	sim.awtEntries = awtEntries
	sim.sms = make([]*SM, cfg.NumSMs)
	for i := range sim.sms {
		sim.sms[i] = newSM(i, sim)
	}
	sim.wireObs()
	sim.S.RegsPerThread = k.Prog.NumReg
	sim.S.ThreadsPerSM = sim.occ.ThreadsPerSM
	sim.S.CTAsPerSM = sim.occ.CTAsPerSM
	sim.S.UnallocatedRegs = sim.occ.UnallocatedRegs
	sim.S.AssistRegsPerWarp = assistRegs
	return sim, nil
}

// assistRegDemand is the per-warp register reservation the compiler adds
// to the block requirement (Section 3.2.2): the largest register footprint
// over the routines this design's algorithm can trigger.
func (sim *Simulator) assistRegDemand() int {
	var ids []core.RoutineID
	var add func(alg compress.AlgID)
	add = func(alg compress.AlgID) {
		switch alg {
		case compress.AlgBDI:
			for enc := compress.BDIEncoding(0); enc < compress.BDINumEncodings; enc++ {
				ids = append(ids, core.RtBDIDecomp+core.RoutineID(enc))
			}
			ids = append(ids, core.RtBDICompSpecial)
			for _, enc := range core.BDICompTestOrder {
				ids = append(ids, core.RtBDICompTest+core.RoutineID(enc))
			}
		case compress.AlgFPC:
			ids = append(ids, core.RtFPCDecomp, core.RtFPCComp)
		case compress.AlgCPack:
			ids = append(ids, core.RtCPackDecomp, core.RtCPackComp)
		case compress.AlgBest:
			add(compress.AlgBDI)
			add(compress.AlgFPC)
			add(compress.AlgCPack)
		}
	}
	add(sim.Design.Alg)
	if sim.Design.Prefetching() {
		ids = append(ids, core.RtPrefetch)
	}
	if sim.Design.Memoizing() {
		ids = append(ids, core.RtMemoProbe, core.RtMemoSave)
	}
	max := 0
	for _, id := range ids {
		if rt, ok := sim.AWS.Get(id); ok && rt.Prog.NumReg > max {
			max = rt.Prog.NumReg
		}
	}
	return max
}

// Occupancy returns the static occupancy analysis for this run.
func (sim *Simulator) Occupancy() Occupancy { return sim.occ }

// FastForwardStats returns zeros.
//
// Deprecated: the simulator no longer skips cycles; every cycle ticks.
func (sim *Simulator) FastForwardStats() (skips, cycles uint64) { return 0, 0 }

// DecompMismatches returns the racing-write counter (tests assert zero).
func (sim *Simulator) DecompMismatches() uint64 { return sim.decompMismatches }

// dispatch fills sm with CTAs while resources allow.
func (sim *Simulator) dispatch(sm *SM) {
	k := sim.Kernel
	warpsPer := k.WarpsPerCTA()
	for sim.nextCTA < k.GridCTAs &&
		len(sm.ctas) < sim.occ.CTAsPerSM &&
		sm.freeWarps() >= warpsPer {
		sm.placeCTA(sim.nextCTA)
		sim.nextCTA++
	}
}

// Run executes the kernel to completion (or the cycle cap) and finalizes
// statistics.
//
// Every elapsed cycle contributes its issue slots to the Figure 1
// breakdown (idle slots included), so SMs tick through stalls and the
// final memory drain. An SM whose quiescence cache holds replays its
// proven stall classification in O(1) instead of scanning its warps.
//
// Each cycle delivers the memory events due, then ticks the SMs in index
// order. An SM's effects on shared state apply as it ticks, so its
// same-cycle stores, atomics and Domain writes are visible to
// higher-indexed SMs in that cycle.
func (sim *Simulator) Run(maxCycles uint64) (err error) {
	if maxCycles == 0 {
		maxCycles = 200_000_000
	}
	start := uint64(0)
	if sim.restored {
		// State came from LoadState: the grid is already (partially)
		// dispatched and the clock resumes at the snapshot cycle.
		start = sim.cycle
	} else {
		for _, sm := range sim.sms {
			sim.dispatch(sm)
		}
	}
	// Backstop for panics: a simulator bug must surface as a structured
	// error, never escape caba.Run. A panic inside an SM tick becomes that
	// SM's fatal error, and the run returns the lowest-indexed SM's, as
	// for any other fatal error in that cycle: SMs above the ticking one
	// have not ticked yet, so they hold none.
	ticking := -1
	defer func() {
		if r := recover(); r != nil {
			if ticking < 0 {
				err = fmt.Errorf("gpu: internal panic at cycle %d: %v", sim.cycle, r)
				return
			}
			sim.sms[ticking].fail(fmt.Errorf("gpu: sm%d: internal panic at cycle %d: %v", ticking, sim.cycle, r))
			err = sim.firstFatal()
		}
	}()
	wedgeLimit := int(sim.Cfg.WedgeLimit)
	if wedgeLimit <= 0 {
		wedgeLimit = defaultWedgeLimit
	}
	if !sim.restored {
		sim.idleStreak = 0
	}
	sim.nextCkpt, sim.nextAudit = never, never
	if sim.Cfg.CheckpointEvery > 0 && sim.OnCheckpoint != nil {
		sim.nextCkpt = start + sim.Cfg.CheckpointEvery
	}
	if sim.Cfg.AuditEvery > 0 {
		sim.nextAudit = start + sim.Cfg.AuditEvery
	}
	sim.nextMaint = min(sim.nextCkpt, sim.nextAudit)
	for sim.cycle = start; sim.cycle < maxCycles; sim.cycle++ {
		// Maintenance runs before this cycle's events are delivered, so a
		// snapshot taken here restores to exactly this loop position; with
		// both knobs at zero this is one dead compare.
		if sim.cycle >= sim.nextMaint {
			if err := sim.maintain(); err != nil {
				return err
			}
		}
		sim.Q.RunUntil(float64(sim.cycle))
		if err := sim.firstFatal(); err != nil {
			return err
		}
		if sim.cycle&1023 == 0 && sim.interrupted.Load() {
			return fmt.Errorf("gpu: %w at cycle %d", ErrInterrupted, sim.cycle)
		}
		busy := false
		for _, sm := range sim.sms {
			if sm.hasWork() {
				busy = true
				break
			}
		}
		drainIdle := !busy && sim.nextCTA >= sim.Kernel.GridCTAs
		if drainIdle {
			if sim.Q.Len() == 0 && sim.Sys.Drained() {
				break
			}
			sim.idleStreak++
			if sim.idleStreak > wedgeLimit {
				return sim.wedged(&WedgeError{Cycle: sim.cycle, Drain: true})
			}
		} else {
			sim.idleStreak = 0
		}
		// Mid-run deadlock detection, only armed under fault injection
		// (the only source of lost responses): if SMs still hold work but
		// the event queue and memory system are empty and no SM can ever
		// act again on its own, the hang is converted into a structured
		// wedge error at the first such cycle.
		if sim.Sys.Inj != nil && busy && sim.Q.Len() == 0 && sim.Sys.Drained() &&
			sim.allWedged() {
			return sim.wedged(&WedgeError{Cycle: sim.cycle,
				Dropped: sim.S.ResponsesDropped})
		}
		for i, sm := range sim.sms {
			ticking = i
			sm.tick(sim.cycle)
		}
		ticking = -1
		if err := sim.firstFatal(); err != nil {
			return err
		}
		// Close the metrics window ending at the boundary this tick just
		// reached (cycle+1 cycles are now complete). Sampling only reads,
		// so obs on or off cannot perturb the simulated statistics.
		if sim.smp != nil && sim.cycle+1 == sim.smp.next {
			sim.sample(sim.smp.next)
		}
	}
	if sim.cycle >= maxCycles {
		return fmt.Errorf("gpu: exceeded %d cycles (deadlock or runaway kernel)", maxCycles)
	}
	if err := sim.firstFatal(); err != nil {
		return err
	}
	sim.Sys.FinishStats(sim.cycle)
	return nil
}

// maintain performs the scheduled maintenance due at the current cycle:
// the invariant audit, then the checkpoint (so a checkpoint is only taken
// from audited-clean state when both fire together). Neither mutates
// simulated state, so cadence never affects results.
func (sim *Simulator) maintain() error {
	if sim.cycle >= sim.nextAudit {
		if err := sim.Audit(); err != nil {
			return err
		}
		sim.record("audit passed", 0)
		sim.nextAudit += sim.Cfg.AuditEvery
	}
	if sim.cycle >= sim.nextCkpt {
		blob, err := sim.SaveState()
		if err != nil {
			return err
		}
		if err := sim.OnCheckpoint(sim.cycle, blob); err != nil {
			return fmt.Errorf("gpu: checkpoint at cycle %d: %w", sim.cycle, err)
		}
		sim.record("checkpoint saved", 0)
		sim.nextCkpt += sim.Cfg.CheckpointEvery
	}
	sim.nextMaint = min(sim.nextCkpt, sim.nextAudit)
	return nil
}

// wedged attaches the flight-recorder trail to a wedge error.
func (sim *Simulator) wedged(we *WedgeError) error {
	sim.record("wedge detected", 0)
	we.Trail = sim.FlightRecord()
	return we
}

// firstFatal returns the lowest-indexed SM's recorded fatal error, if any.
func (sim *Simulator) firstFatal() error {
	for _, sm := range sim.sms {
		if sm.fatal != nil {
			return sm.fatal
		}
	}
	return nil
}

// allWedged reports whether every SM is quiescent with no self-wake
// horizon — i.e. nothing in the machine can ever act again without a
// memory-system event, and the caller has established that no events are
// pending. It seeds the per-SM quiescence caches the tick replays.
func (sim *Simulator) allWedged() bool {
	for _, sm := range sim.sms {
		if !sm.qValid || sim.cycle >= sm.qHorizon {
			kind, horizon, ok := sm.quiescent(sim.cycle)
			if !ok {
				sm.qValid = false
				return false
			}
			sm.qValid, sm.qKind, sm.qHorizon = true, kind, horizon
		}
		if sm.qHorizon != never {
			return false
		}
	}
	return true
}

// Cycles returns the completed cycle count.
func (sim *Simulator) Cycles() uint64 { return sim.cycle }
