package gpu

import (
	"bytes"
	"fmt"

	"github.com/caba-sim/caba/internal/compress"
	"github.com/caba-sim/caba/internal/config"
	"github.com/caba-sim/caba/internal/core"
	"github.com/caba-sim/caba/internal/isa"
	"github.com/caba-sim/caba/internal/mem"
	"github.com/caba-sim/caba/internal/obs"
	"github.com/caba-sim/caba/internal/stats"
)

// Store-buffer tuning: the dedicated L1 sets / shared-memory space used to
// buffer pending stores awaiting compression (Section 4.2.2).
const (
	storeBufCap   = 16
	storeDrainAge = 200
)

// storeEntry is one pending store line.
type storeEntry struct {
	lineAddr  uint64
	coverage  uint32 // one bit per 4-byte word of the line
	warp      int    // last storing warp (assist-warp parent)
	lastTouch uint64
	state     storeState
	// Compression chain position for the CABA path.
	chain    []core.RoutineID
	chainPos int
	alg      compress.AlgID // algorithm the chain is running
	// released marks an entry already sent to L2 (possibly abandoned
	// mid-compression by a buffer overflow); stale callbacks ignore it.
	released bool
}

type storeState uint8

const (
	sbPending  storeState = iota
	sbRMW                 // fetching the line for a partial overwrite
	sbCompress            // compression in progress (AW or HW latency)
	sbQueued              // waiting for an AWC low-priority slot
)

// fill contexts routed through mem.System's opaque user pointer.
type fillKind uint8

const (
	fillLoad fillKind = iota
	fillRMW
	fillAssist  // global load issued by an assist warp (e.g. prefetch)
	fillRefetch // fault-recovery refetch of an uncompressed line
)

type fillCtx struct {
	kind  fillKind
	load  *loadReq
	se    *storeEntry
	after cont // fillRefetch continuation
}

// wbKind tags a pipeline writeback record.
type wbKind uint8

const (
	wbWarp   wbKind = iota // regular-warp ALU/SFU/shared-mem completion
	wbAssist               // assist-warp instruction completion
	wbLoad                 // L1-hit (or HW-decompressed) load line completion
)

// wbRec is one pending pipeline writeback, held in the SM's time-bucketed
// ring instead of a heap-allocated event closure: the issue hot path was
// dominated by one closure + instruction copy per issued instruction. The
// record references the issued instruction's superop (immutable, shared),
// so queuing a writeback copies a pointer instead of an Instr and retiring
// one releases scoreboard destinations with the superop's precomputed
// masks. Nil for wbLoad records.
type wbRec struct {
	kind wbKind
	sop  *isa.Superop
	w    *warpCtx
	e    *core.Entry
	req  *loadReq
}

// SM is one streaming multiprocessor.
type SM struct {
	id  int
	sim *Simulator

	warps []*warpCtx
	ctas  []*ctaCtx
	// drainingCTAs counts resident CTAs whose warps have all finished
	// (liveWarps == 0) but whose in-flight instructions have not drained;
	// the retirement sweep runs only while it is nonzero.
	drainingCTAs int

	l1   *mem.Cache
	mshr *mem.MSHR

	awc *core.Controller

	// Use-case hardware (usecase.go): the stride-detection prefetch unit
	// and the memoization result cache. Both are nil unless Design.UseCase
	// enables them, so compression-only designs pay nothing.
	pf   *prefetcher
	memo *memoCache

	// stat is this SM's shard of the run counters; folded into sim.S at
	// the end of the run.
	stat stats.Shard

	// execPool recycles assist-warp execution contexts (registers +
	// staging buffers) across triggers; the assist-warp request path is
	// the simulator's dominant allocation source without it.
	execPool []*core.Exec

	// warpExecPool recycles regular-warp execution contexts across CTA
	// placements (kept separate from execPool: warp contexts are sized by
	// the kernel's register count and carry no staging buffers).
	warpExecPool []*core.Exec

	// storeBuf holds pending store lines in age order (oldest first). It
	// is bounded by storeBufCap, so identity/address lookups are linear
	// scans over a short slice — cheaper than the map it replaces.
	storeBuf []*storeEntry

	// wbRing is the pipeline writeback ring: bucket (cycle & wbMask)
	// holds the writebacks completing at that cycle. Bucket slices are
	// recycled, so steady-state issue allocates nothing.
	wbRing    [][]wbRec
	wbMask    uint64
	wbPending int

	// Retry queues for assist-warp triggers that found the AWT/AWB full.
	decompRetry []pendingTrigger
	// retryArmed gates tick's decompRetry scan: set where AWT capacity
	// frees or a queued store line is released (checkAssistDone after
	// awc.Retire, evictOldestStore, releaseStore) and by LoadState,
	// cleared when a scan starts. Skipping an unarmed scan is exact:
	// every queued trigger lands under a fixed condition — decompression
	// and ECC triggers iff findAssistHost(PriHigh, warp) >= 0; a
	// compression step drops out iff se.released and otherwise lands iff
	// awc.CanTrigger(PriLow, se.warp) — and a failed attempt only reads
	// state. Between scans, only a retirement or a release can turn a
	// failing attempt into a landing one; every other AWT change is a
	// Trigger, which only takes capacity. Within one scan capacity only
	// shrinks, so clearing the flag as the scan starts loses nothing. A
	// pure strategy hint like core.Controller's drained flag: not
	// serialized, re-armed conservatively on load.
	retryArmed bool
	// replayQ holds loads whose coalesced lines overflowed the MSHR.
	replayQ []*loadReq

	// Pipeline ports, reset each cycle.
	aluPorts int
	lsuPorts int
	sfuFree  uint64 // SFU initiation interval
	lsuFree  uint64 // LSU busy from multi-line coalesced accesses

	greedy *warpCtx
	// order is the GTO scheduling order (valid warps, stable-sorted by
	// lastIssueCycle then warp slot). It is maintained incrementally:
	// issued warps recorded in issuedBuf are re-placed at the back on the
	// next tick, and orderDirty forces a full rebuild after warp validity
	// changes (CTA placement/retirement). LRR rebuilds every tick. Entries
	// are warp slot indices rather than pointers so the per-issue
	// move-to-back shift is a barrier-free memmove and the position scan
	// stays within a few cache lines.
	order       []int32
	orderDirty  bool
	issuedBuf   []*warpCtx
	lineBuf     []uint64
	awLineBuf   []uint64 // coalescing scratch for assist-warp accesses
	lastGoodEnc compress.BDIEncoding
	hasLastGood bool

	// Adaptive disable (Section 4.3.1 / Section 6: applications whose
	// data is not compressible have their assist warps disabled so they
	// see no degradation). A streak of failed compression chains turns
	// the store-side compression off.
	compFailStreak int
	compDisabled   bool

	// Quiescence cache. When valid, quiescent() has proven that every
	// tick before qHorizon (exclusive) is a pure stall-accounting no-op
	// classified as qKind, so tick() replays that verdict in O(1) instead
	// of re-scanning the warp list. Any event-side entry into the SM
	// (fills, delayed decompression, store releases, CTA placement)
	// invalidates it via touch(). This is what makes memory-stall cycles
	// cheap even when dense memory-system events pin the global clock to
	// per-cycle stepping.
	qValid   bool
	qKind    stats.StallKind
	qHorizon uint64
	// qTry gates cache establishment: only a tick that issued nothing
	// makes the next tick a quiescence candidate, so busy ticks never pay
	// for the extra scan.
	qTry bool

	// Batch window (Config.BatchIssue). When valid, tryEstablishBatch has
	// proven that every tick in [bStart, bUntil) is fully determined in
	// advance, and the exact GTO issue schedule, bEvents, has been
	// precomputed by simulating the scheduler. Each warp is modelled as
	// either a participant — mid straightline run (isa.Decoded.RunLen)
	// with an empty divergence stack, free to issue inside the window —
	// or a closer: a warp whose next op is a run boundary (memory, SFU,
	// control, an ALU op with divergence in flight). Closers evolve in
	// the simulation exactly like participants (scoreboards seeded from
	// the live masks, retired on the writeback ring's due cycles) but
	// never issue in-window: the first simulated cycle on which a closer
	// would win an issue slot ends the window (exclusive) — the boundary
	// op is scheduler-visible and must go through the normal path, which
	// reproduces that cycle's slots deterministically from the identical
	// architected state. batchTick replays the scheduled ticks without
	// the scheduler scans, with per-cycle side effects (writeback ring
	// pops and pushes, issue-slot stats, stall attribution, AWC
	// utilization window, energy class counters, greedy and
	// lastIssueCycle updates) bit-identical to the full tick. Failing
	// slots classify from the per-cycle bGap tables (closer hazard flags
	// vary cycle to cycle as their scoreboards drain); DataDep slots
	// blame the live greedy warp — the last issuer, which a failing slot
	// always visits first and always finds scoreboard-blocked. Like the
	// quiescence cache this is a pure strategy cache: touch() drops it,
	// snapshots never carry it, and aborting a window mid-flight loses
	// nothing (all replayed state is architected).
	bValid   bool
	bStart   uint64
	bUntil   uint64
	bEvents  []bEvt
	bEvtHead int
	bParts   []*warpCtx
	bPartOps [][]isa.Superop
	// Per-simulated-cycle classification of failing issue slots, indexed
	// by cycle-bStart: the stall kind, and for Memory/Compute kinds the
	// blamed (warp, cause) pair (DataDep blames the live greedy).
	bGapKind []stats.StallKind
	bGapW    []int32
	bGapC    []obs.Cause
	// Establishment scratch, retained across windows to avoid per-window
	// allocation: the simulated warp states, the simulated GTO visit
	// order, and the warp-slot → bScr-index map used to seed pending
	// sets from the writeback ring. All of it is pre-sized in one shot
	// at the first establishment attempt (bSlab doubles as the "done"
	// flag and backs every part's pend queue), so the batch engine adds
	// a fixed handful of allocations per SM lifetime rather than
	// doubling-growth churn on every fresh simulator.
	bScr    []bPart
	bOrd    []int32
	bPartOf []int16
	bIssued []int32
	bSlab   []bSimOp
	// bSkip is an establishment backoff: after a simulation proves the
	// window too short to pay for (a closer wins a slot within a cycle
	// or two), re-attempts — which would mostly re-prove the same thing
	// — are suppressed until this cycle. bSkipLen is the current backoff
	// length, doubled (capped) on consecutive short failures and reset
	// when a window establishes. Purely a strategy heuristic: the pair
	// changes when windows are attempted, never what any window replays,
	// and is not serialized.
	bSkip    uint64
	bSkipLen uint64

	// fatal is the SM's first unrecoverable error (an internal invariant
	// violation that used to panic). The run loop scans it every cycle
	// and surfaces it as a structured error from Run.
	fatal error

	// fr is this SM's flight-recorder ring (nil when the recorder is
	// off). Only this SM writes it.
	fr *flightRing

	// attr is this SM's per-warp stall attribution table (nil when
	// Config.AttributeStalls is off). Like stat and fr, it is written
	// only by its owning SM.
	attr *obs.Attr
	// qBlameW/qBlameC cache the attribution target alongside the
	// quiescence verdict (qKind): the tick fast path and the
	// fast-forward bulk credit charge the cached pair, so a skipped
	// window attributes exactly like the per-cycle replay it replaces.
	qBlameW int
	qBlameC obs.Cause

	// tr is this SM's trace shard (nil when Config.TraceFile is empty);
	// written only by this SM. The trAW*/trMSHR* maps and free lists
	// allocate stable per-entity track ids (warp slots occupy
	// [0, MaxWarpsPerSM); assist warps and MSHR lines get recycled tracks
	// in disjoint ranges above).
	tr         *obs.TraceShard
	trAW       map[*core.Entry]int
	trAWFree   []int
	trAWNext   int
	trMSHR     map[uint64]int
	trMSHRFree []int
	trMSHRNext int

	cycle uint64
}

// touch invalidates the quiescence cache and the batch window; every
// mutation of SM state that can happen outside tick() must call it.
func (sm *SM) touch() {
	if sm.bValid && sm.cycle+2 < sm.bUntil {
		// An external event (fill, assist completion, store release)
		// killed the window well before its planned end — the horizon
		// scan cannot see cross-SM memory timing, so on traffic-heavy
		// phases windows are established only to be torn down. Back off
		// like a short failure; a window that later replays to its end
		// resets the eagerness.
		if sm.bSkipLen < 4 {
			sm.bSkipLen = 4
		} else if sm.bSkipLen < 256 {
			sm.bSkipLen *= 2
		}
		sm.bSkip = sm.cycle + sm.bSkipLen
	}
	sm.qValid = false
	sm.bValid = false
}

// fail records the SM's first fatal error; later errors are dropped so
// the surfaced error is the root cause.
func (sm *SM) fail(err error) {
	if sm.fatal == nil {
		sm.fatal = err
	}
	sm.touch()
}

// tickSafe runs one tick with a panic backstop that converts a panic into
// the SM's fatal error, so the surfaced error names the SM that failed.
func (sm *SM) tickSafe(cycle uint64) {
	defer func() {
		if r := recover(); r != nil {
			sm.fail(fmt.Errorf("gpu: sm%d: internal panic at cycle %d: %v", sm.id, cycle, r))
		}
	}()
	sm.tick(cycle)
}

// domCompressLine compresses the line's current bytes with the domain
// algorithm and records the result.
func (sm *SM) domCompressLine(ln uint64) {
	var line [compress.LineSize]byte
	sm.sim.Dom.ReadRaw(ln, line[:])
	c, err := compress.Compress(sm.sim.Dom.Alg, line[:])
	if err != nil {
		sm.fail(fmt.Errorf("gpu: %w", err)) // impossible: line is LineSize
		return
	}
	sm.sim.Dom.SetCompressed(ln, c)
}

// newAssistExec builds an assist-warp execution context, recycling a
// pooled context (registers, staging buffers and all) when available.
func (sm *SM) newAssistExec(rt *core.Routine) *core.Exec {
	if n := len(sm.execPool); n > 0 {
		ex := sm.execPool[n-1]
		sm.execPool = sm.execPool[:n-1]
		core.ResetAssistExec(ex, rt)
		ex.Interp = sm.sim.Cfg.Interpreter
		return ex
	}
	ex := core.NewAssistExec(rt)
	ex.Interp = sm.sim.Cfg.Interpreter
	return ex
}

// releaseAssistExec returns a retired assist exec to the pool. The exec
// must have no remaining readers.
func (sm *SM) releaseAssistExec(ex *core.Exec) {
	sm.execPool = append(sm.execPool, ex)
}

func newSM(id int, sim *Simulator) *SM {
	cfg := sim.Cfg
	sm := &SM{
		id:    id,
		sim:   sim,
		warps: make([]*warpCtx, cfg.MaxWarpsPerSM),
		l1:    mem.NewCache(cfg.L1Size, cfg.L1Assoc, cfg.LineSize, 1, sim.Design.L1TagMult),
		mshr:  mem.NewMSHR(cfg.L1MSHRs),
		fr:    newFlightRing(cfg.FlightRecorderDepth),
	}
	for i := range sm.warps {
		sm.warps[i] = &warpCtx{id: i}
	}
	// Size the writeback ring to cover the longest in-pipeline latency:
	// ALU/SFU completion, and L1 hits including the worst-case hardware
	// decompression penalty.
	maxLat := cfg.ALULatency
	if cfg.SFULatency > maxLat {
		maxLat = cfg.SFULatency
	}
	if d, _ := compress.HWLatency(compress.AlgBest); cfg.L1Latency+d > maxLat {
		maxLat = cfg.L1Latency + d
	}
	ringSize := 1
	for ringSize < maxLat+2 {
		ringSize *= 2
	}
	sm.wbRing = make([][]wbRec, ringSize)
	sm.wbMask = uint64(ringSize - 1)
	sm.orderDirty = true
	entries := sim.awtEntries
	if entries <= 0 {
		entries = cfg.MaxWarpsPerSM
	}
	sm.awc = core.NewController(sim.AWS, entries)
	if cfg.AWDeployBW > 0 {
		sm.awc.DeployBW = cfg.AWDeployBW
	}
	if sim.Design.Prefetching() {
		sm.pf = newPrefetcher()
	}
	if sim.Design.Memoizing() {
		sm.memo = &memoCache{}
	}
	return sm
}

// hasWork reports whether the SM still has anything in flight.
func (sm *SM) hasWork() bool {
	for _, c := range sm.ctas {
		if c != nil {
			return true
		}
	}
	return len(sm.storeBuf) > 0 || len(sm.awc.Entries()) > 0 ||
		len(sm.decompRetry) > 0 || len(sm.replayQ) > 0 || sm.wbPending > 0
}

// --- Writeback ring ---

// wbAdd schedules a pipeline writeback at absolute cycle at.
func (sm *SM) wbAdd(at uint64, rec wbRec) {
	if at-sm.cycle > sm.wbMask {
		panic("gpu: writeback latency exceeds ring span")
	}
	i := at & sm.wbMask
	sm.wbRing[i] = append(sm.wbRing[i], rec)
	sm.wbPending++
}

// wbPop retires the writebacks due at cycle. It runs at tick start,
// before sm.cycle advances, preserving the completion-before-issue
// ordering (and load-latency accounting) of the event-queue path it
// replaces.
func (sm *SM) wbPop(cycle uint64) {
	bucket := sm.wbRing[cycle&sm.wbMask]
	if len(bucket) == 0 {
		return
	}
	sm.wbRing[cycle&sm.wbMask] = bucket[:0]
	sm.wbPending -= len(bucket)
	for i := range bucket {
		rec := &bucket[i]
		switch rec.kind {
		case wbWarp:
			rec.w.sb.ClearSop(rec.sop)
			rec.w.depStalled = false
			rec.w.inFlight--
		case wbAssist:
			rec.e.SB.ClearSop(rec.sop)
			rec.e.Outstanding--
			sm.checkAssistDone(rec.e)
		case wbLoad:
			sm.loadLineDone(rec.req)
		}
		*rec = wbRec{} // drop pointers so retired contexts can be collected
	}
}

// wbNext returns the cycle of the earliest pending writeback after `from`
// (exclusive); ok is false when the ring is empty. Used by the
// fast-forward engine to bound the skip window.
func (sm *SM) wbNext(from uint64) (uint64, bool) {
	if sm.wbPending == 0 {
		return 0, false
	}
	for d := uint64(1); d <= sm.wbMask+1; d++ {
		if len(sm.wbRing[(from+d)&sm.wbMask]) > 0 {
			return from + d, true
		}
	}
	return 0, false
}

// --- CTA lifecycle ---

// placeCTA installs thread block cta onto the SM. Caller checked capacity.
// It invalidates the quiescence cache: fresh warps change the issue
// picture.
func (sm *SM) placeCTA(ctaID int) {
	sm.touch()
	sm.orderDirty = true
	k := sm.sim.Kernel
	cfg := sm.sim.Cfg
	warpsNeeded := k.WarpsPerCTA(cfg)
	cta := &ctaCtx{
		id:     ctaID,
		shared: make([]byte, k.SharedMem),
	}
	placed := 0
	for _, w := range sm.warps {
		if placed == warpsNeeded {
			break
		}
		if w.valid {
			continue
		}
		threadsLeft := k.CTAThreads - placed*cfg.WarpSize
		mask := core.FullMask
		if threadsLeft < cfg.WarpSize {
			mask = (1 << threadsLeft) - 1
		}
		var ex *core.Exec
		if n := len(sm.warpExecPool); n > 0 {
			ex = sm.warpExecPool[n-1]
			sm.warpExecPool = sm.warpExecPool[:n-1]
			ex.Reset(k.Prog, mask)
		} else {
			ex = core.NewExec(k.Prog, mask)
		}
		ex.Interp = cfg.Interpreter
		ex.Mem = sm.sim.Mem
		ex.Shared = cta.shared
		for lane := 0; lane < cfg.WarpSize; lane++ {
			tid := placed*cfg.WarpSize + lane
			ex.SetLaneSpecial(lane, isa.RegTid, uint64(tid))
			ex.SetLaneSpecial(lane, isa.RegGtid, uint64(ctaID*k.CTAThreads+tid))
		}
		ex.SetSpecial(isa.RegNTid, uint64(k.CTAThreads))
		ex.SetSpecial(isa.RegCtaid, uint64(ctaID))
		ex.SetSpecial(isa.RegNCta, uint64(k.GridCTAs))
		ex.SetSpecial(isa.RegWarp, uint64(placed))
		ex.SetSpecial(isa.RegParam0, k.Params[0])
		ex.SetSpecial(isa.RegParam1, k.Params[1])
		ex.SetSpecial(isa.RegParam2, k.Params[2])
		ex.SetSpecial(isa.RegParam3, k.Params[3])
		w.cta = cta
		w.exec = ex
		w.sb = regMask{}
		w.depStalled = false
		w.idle = false
		w.valid = true
		w.inFlight = 0
		w.pendingLoads = 0
		cta.warps = append(cta.warps, w)
		placed++
	}
	if placed != warpsNeeded {
		panic("gpu: placeCTA without capacity")
	}
	cta.liveWarps = warpsNeeded
	sm.ctas = append(sm.ctas, cta)
	if sm.tr != nil {
		for _, w := range cta.warps {
			sm.traceWarpBegin(w, ctaID)
		}
	}
	if sm.fr != nil {
		sm.record(fmt.Sprintf("CTA %d placed (%d warps)", ctaID, warpsNeeded), 0)
	}
}

// freeWarps reports how many warp slots are free.
func (sm *SM) freeWarps() int {
	n := 0
	for _, w := range sm.warps {
		if !w.valid {
			n++
		}
	}
	return n
}

// retireCTAIfDone frees a finished CTA and reports whether it did.
func (sm *SM) retireCTAIfDone(cta *ctaCtx) bool {
	if cta.liveWarps > 0 {
		return false
	}
	for _, w := range cta.warps {
		if w.inFlight > 0 || w.pendingLoads > 0 || w.replay != nil {
			return false
		}
	}
	for _, w := range cta.warps {
		if sm.tr != nil {
			sm.traceWarpEnd(w)
		}
		w.valid = false
		sm.warpExecPool = append(sm.warpExecPool, w.exec)
		w.exec = nil
		w.cta = nil
	}
	sm.orderDirty = true
	sm.drainingCTAs--
	for i, c := range sm.ctas {
		if c == cta {
			sm.ctas = append(sm.ctas[:i], sm.ctas[i+1:]...)
			break
		}
	}
	if sm.fr != nil {
		sm.record(fmt.Sprintf("CTA %d retired", cta.id), 0)
	}
	return true
}

// --- Per-cycle tick ---

// tick runs one SM cycle. Its effects on shared state — crossbar
// requests, events, Domain updates, functional stores and atomics, CTA
// dispatch — apply immediately; the simulator ticks SMs in index order.
func (sm *SM) tick(cycle uint64) {
	// Quiescence fast path: replay (or establish) a proven stall
	// classification without touching the pipeline. Bit-identical to the
	// full tick below — quiescent() guarantees the tick would be a pure
	// accounting no-op, and NoteIdleSlots matches NumSchedulers failed
	// NoteIssueSlot calls exactly.
	if sm.sim.Cfg.FastForward {
		if !sm.qValid && sm.qTry {
			if kind, horizon, ok := sm.quiescent(cycle); ok {
				sm.qValid, sm.qKind, sm.qHorizon = true, kind, horizon
			}
		}
		if sm.qValid {
			if cycle < sm.qHorizon {
				sm.cycle = cycle
				sched := sm.sim.Cfg.NumSchedulers
				sm.stat.IssueSlots[sm.qKind] += uint64(sched)
				if sm.attr != nil {
					sm.attr.Charge(sm.qBlameW, sm.qBlameC, uint64(sched))
				}
				sm.awc.NoteIdleSlots(sched)
				return
			}
			sm.qValid = false
		}
	}

	// Batch-window fast path: replay one precomputed cycle of the
	// established straightline run (Config.BatchIssue). Sits after the
	// quiescence block deliberately — a gap cycle of the window that the
	// fast-forward engine proved quiescent is replayed there instead,
	// with identical accounting, and the window resumes at its horizon.
	if sm.bValid {
		if cycle < sm.bUntil {
			sm.batchTick(cycle)
			return
		}
		sm.bValid = false
		// The window replayed to its planned end: establishment paid
		// off, so re-arm it at full eagerness.
		sm.bSkipLen = 0
	}

	// Retire pipeline writebacks due this cycle before the clock (and the
	// issue stage) advances.
	sm.wbPop(cycle)

	sm.cycle = cycle
	sm.aluPorts = sm.sim.Cfg.NumSchedulers
	sm.lsuPorts = 1

	// Retry assist-warp triggers that previously found structures full,
	// once capacity has freed since the last scan (retryArmed).
	if sm.retryArmed {
		sm.retryArmed = false
		kept := sm.decompRetry[:0]
		for i := range sm.decompRetry {
			if !sm.runTrigger(&sm.decompRetry[i]) {
				kept = append(kept, sm.decompRetry[i])
			}
		}
		sm.decompRetry = kept
	}

	sm.awc.Tick()
	sm.processReplays()
	sm.rebuildOrder()

	// Block-batched issue: if the greedy warp heads a straightline run
	// and no event can intervene, precompute the whole window's schedule
	// and replay its first cycle; drainStores and the CTA sweep are
	// proven no-ops by the establishment scan.
	if sm.sim.Cfg.BatchIssue && !sm.bValid && sm.tryEstablishBatch(cycle) {
		sm.batchTick(cycle)
		return
	}

	idle := true
	for s := 0; s < sm.sim.Cfg.NumSchedulers; s++ {
		kind := sm.issueSlot()
		if kind == stats.Active {
			idle = false
		}
		sm.awc.NoteIssueSlot(kind == stats.Active)
		sm.stat.IssueSlots[kind]++
	}
	sm.qTry = idle

	sm.drainStores()

	// CTA retirement sweep, only while some CTA has every warp done and
	// is draining its in-flight instructions (drainingCTAs tracks the
	// liveWarps==0 population, so the common steady-state tick skips the
	// walk entirely).
	if sm.drainingCTAs > 0 {
		retired := false
		for i := len(sm.ctas) - 1; i >= 0; i-- {
			if sm.retireCTAIfDone(sm.ctas[i]) {
				retired = true
			}
		}
		// One dispatch after the sweep: CTAs retiring in the same tick free
		// their warp slots together, and new CTAs fill the lowest ones.
		if retired {
			sm.sim.dispatch(sm)
		}
	}
}

// slotFlags records why candidates could not issue, for Figure 1's
// classification.
type slotFlags struct {
	dep   bool
	memS  bool
	compS bool

	// Attribution blame, filled only when blame is armed (initBlame):
	// for each raised flag, the first candidate warp that raised it —
	// in scheduler visit order — and the specific structural cause.
	// barW/drainW/idleAW back the idle-slot precedence (barrier >
	// drain > blocked low-priority assist > empty SM).
	blame             bool
	depW, memW, compW int
	depC, memC, compC obs.Cause
	barW, drainW      int
	idleAW            int
}

// quiescent reports whether tick(cycle) would be a pure stall-accounting
// no-op for this SM — nothing can issue, retire, drain or deploy — and if
// so, which stall kind each of its issue slots would record. horizon is
// the earliest future cycle at which this SM's own state can make a tick
// act again (pipeline writeback, LSU/SFU port release, store-buffer
// aging); ^uint64(0) when the SM is waiting purely on memory-system
// events. The fast-forward engine may then skip ticks up to
// min(horizon, next event) while crediting `kind` in bulk, with results
// bit-identical to per-cycle ticking.
func (sm *SM) quiescent(cycle uint64) (kind stats.StallKind, horizon uint64, ok bool) {
	horizon = ^uint64(0)

	// Assist-warp machinery in flight can act on any tick: AWC deployment
	// and round-robin rotation every tick, queued triggers on the first
	// tick after capacity frees (retryArmed).
	if len(sm.decompRetry) > 0 || !sm.awc.Idle() {
		return 0, 0, false
	}
	// A writeback due this very tick acts; later ones bound the window.
	if len(sm.wbRing[cycle&sm.wbMask]) > 0 {
		return 0, 0, false
	}
	if wb, any := sm.wbNext(cycle); any && wb < horizon {
		horizon = wb
	}
	// Replay queue: progress this tick means not quiescent; otherwise it
	// is gated on the LSU (horizon) or a fill event freeing the MSHR
	// (covered by the event-queue bound).
	if len(sm.replayQ) > 0 {
		if cycle >= sm.lsuFree {
			if !sm.mshr.Full() {
				return 0, 0, false
			}
		} else if sm.lsuFree < horizon {
			horizon = sm.lsuFree
		}
	}
	// A retirable CTA means the tick would retire it and dispatch work.
	for _, cta := range sm.ctas {
		if cta.liveWarps != 0 {
			continue
		}
		retirable := true
		for _, w := range cta.warps {
			if w.inFlight > 0 || w.pendingLoads > 0 || w.replay != nil {
				retirable = false
				break
			}
		}
		if retirable {
			return 0, 0, false
		}
	}
	// Store buffer: a due drain acts now; future aging bounds the window.
	bufFull := len(sm.storeBuf) >= storeBufCap*3/4
	for _, se := range sm.storeBuf {
		if se.state != sbPending {
			continue
		}
		if bufFull || cycle-se.lastTouch >= storeDrainAge {
			return 0, 0, false
		}
		if t := se.lastTouch + storeDrainAge; t < horizon {
			horizon = t
		}
	}
	// Warps: replicate issueSlot's classification flags without issuing.
	// Per-tick port counters (aluPorts/lsuPorts) reset every cycle, so
	// only the lsuFree/sfuFree time gates matter here. Under LRR the last
	// issuer is skipped by the issue loop, so it is skipped here too.
	var f slotFlags
	if sm.attr != nil {
		f.initBlame()
	}
	lrr := sm.sim.Cfg.Scheduler == config.SchedLRR
	for _, w := range sm.warps {
		if !w.valid || (lrr && w == sm.greedy) {
			continue
		}
		in := w.exec.CurrentSop()
		if in == nil {
			// Done or at barrier: contributes to idle.
			if f.blame {
				f.noteIdleWarp(w)
			}
			continue
		}
		if w.sb.ConflictsSop(in) {
			f.dep = true
			if f.blame && f.depW < 0 {
				f.depW, f.depC = w.id, sm.depCause(w)
			}
			continue
		}
		switch in.Class {
		case isa.ClassMem:
			if cycle < sm.lsuFree {
				f.memS = true
				if f.blame && f.memW < 0 {
					f.memW, f.memC = w.id, obs.CauseLSUBusy
				}
				if sm.lsuFree < horizon {
					horizon = sm.lsuFree
				}
				continue
			}
			if in.GlobalMem && in.StoreOp &&
				len(sm.storeBuf) >= storeBufCap && !sm.canEvictStore() {
				// Unblocks only via compression/RMW completion events.
				f.memS = true
				if f.blame && f.memW < 0 {
					f.memW, f.memC = w.id, obs.CauseStoreBufFull
				}
				continue
			}
			if in.GlobalMem && w.replay != nil {
				// Blocks behind the warp's replaying load, which drains
				// via fill events or the LSU horizon handled above.
				f.memS = true
				if f.blame && f.memW < 0 {
					f.memW, f.memC = w.id, sm.mshrCause()
				}
				continue
			}
			return 0, 0, false // the LSU is free: this warp would issue
		case isa.ClassSFU:
			if cycle < sm.sfuFree {
				if sm.memo != nil {
					// With memoization on, a busy SFU port is not a
					// stall: the live tick may issue this warp through
					// the probe path. Never claim quiescence over it.
					return 0, 0, false
				}
				f.compS = true
				if f.blame && f.compW < 0 {
					f.compW, f.compC = w.id, obs.CauseSFUBusy
				}
				if sm.sfuFree < horizon {
					horizon = sm.sfuFree
				}
				continue
			}
			return 0, 0, false
		default:
			// ALU and control ports are always available at tick start.
			return 0, 0, false
		}
	}
	kind = classify(&f)
	if f.blame {
		sm.qBlameW, sm.qBlameC = blameFor(kind, &f)
	}
	return kind, horizon, true
}

// bSimOp is one simulated in-flight instruction during batch-window
// establishment: the superop whose scoreboard destinations stay pending
// until the simulated writeback at `due`.
type bSimOp struct {
	due uint64
	sop *isa.Superop
}

// Batch-window warp roles. clRun is a participant (mid straightline
// run, issues in-window). The rest are closers, keyed by what gates
// their boundary op beyond the scoreboard: clMem issues once the LSU
// frees, clMemSB/clMemRp never in-window (store buffer full / MSHR
// replay pending — both frozen for the window's duration, since stores
// drain and replays resolve only through events or aged drains that
// clamp the horizon or abort via touch), clSFU once the SFU frees,
// clOther (control, run-tail or diverged ALU) as soon as its
// scoreboard clears.
const (
	clRun = iota
	clMem
	clMemSB
	clMemRp
	clSFU
	clOther
)

// bPart is the simulated state of one batch-window warp — participant
// or closer — whose only in-window interactions are its own scoreboard
// and the writeback ring. pc/end walk the run inside ops (for closers
// pc is pinned at the boundary op and end is unused); pg/pp are the
// simulated pending masks, seeded from the live scoreboard; pend[head:]
// is the simulated in-flight queue, seeded from the warp's pending
// writeback-ring entries and extended by simulated issues, kept sorted
// by due cycle — simulated issues are monotone, but a seeded op from
// just before the run (an SFU result, say) can outlive ALU ops issued
// after it, so insertion is ordered rather than FIFO. The Set masks of
// concurrently pending ops never overlap (a WAW-conflicting op would
// not have issued), so retiring an op can clear its Set bits exactly.
type bPart struct {
	w    *warpCtx
	ops  []isa.Superop
	pc   int32
	end  int32
	cl   uint8
	pg   [4]uint64
	pp   uint8
	pend []bSimOp
	head int
}

// blocked reports whether the participant's next superop conflicts with
// its simulated pending set — ConflictsSop against the evolved masks.
func (p *bPart) blocked() bool {
	s := &p.ops[p.pc]
	return (s.UseG[0]&p.pg[0])|(s.UseG[1]&p.pg[1])|
		(s.UseG[2]&p.pg[2])|(s.UseG[3]&p.pg[3]) != 0 || s.UseP&p.pp != 0
}

// bEvt is one entry of the precomputed issue schedule: participant
// `part` issues its next superop in an issue slot of cycle bStart+off.
// Entries are in slot order within a cycle, so consecutive same-part
// entries are consecutive slots and replay as one core.StepRun.
type bEvt struct {
	off  uint16
	part uint8
}

// batchWindowCap bounds a batch window's length in cycles, keeping the
// precomputed schedule small and bounding how much of it an aborting
// event (which discards the remainder) can waste.
const batchWindowCap = 256

// batchMinWindow is the shortest window worth establishing: replayed
// cycles are the scheduler's cheapest (dep-stalled warps short-circuit on
// the verdict caches), so a window must amortize its establishment scan
// over a meaningful span to break even.
const batchMinWindow = 8

// bPendCap is the slab-backed capacity of each part's simulated pending
// queue. pend accumulates one entry per op the part issues in-window
// (retires advance head without shrinking), so a run longer than this
// spills into a heap-grown slice — correct, just unamortized.
const bPendCap = 64

// tryEstablishBatch attempts to open a batch window at `cycle`. The GTO
// greedy warp must be about to issue from inside a straightline run
// (isa.Decoded.RunLen); every other valid warp joins the simulation as
// a participant (also mid-run, free to issue in-window) or a closer (at
// a run boundary — its first simulated slot win ends the window). Done
// and at-barrier warps are stable for the window's duration. The
// horizon is clamped to the earliest cycle at which anything outside
// the simulated warps' own pipelines can act: a foreign writeback
// (load-line and assist completions included) or store-buffer aging.
// Everything event-driven (fills, compression completions, CTA
// placement) aborts the window via touch() instead.
//
// On success the window's exact issue schedule is simulated into
// bEvents: per cycle, due simulated writebacks retire first (the
// wbPop-before-issue order), then each issue slot picks the first
// issuable warp in scheduler visit order — the greedy warp, then the
// GTO order — exactly as issueSlot does, with issued participants
// re-placed at the back of the simulated order at the cycle boundary,
// in warp slot order among themselves (rebuildOrder's tie-break for
// warps sharing an issue cycle). The window ends at the earliest of:
// the cycle some participant would issue its run's final op, the cycle
// a closer would win a slot (both exclusive — a boundary op is
// scheduler-visible and must go through the normal path, which
// re-derives that cycle's slots identically, possibly dual-issuing the
// boundary op with a run op), the horizon, and batchWindowCap.
//
// A failing slot implies the greedy warp — a participant, visited
// first — is scoreboard-blocked, so the dep flag is always raised and
// the DataDep blame pair names the live greedy warp. The Memory and
// Compute hazard flags vary cycle to cycle as closer scoreboards
// drain (a closer whose conflict clears while its port is still busy
// starts raising memS/compS), so each simulated cycle's classification
// and blame are recorded in the bGap tables. Closers never move in
// the visit order and participants never raise those flags, so the
// first-raiser-in-visit-order blame rule reduces to the first raising
// closer in establishment scan order.
func (sm *SM) tryEstablishBatch(cycle uint64) bool {
	cfg := sm.sim.Cfg
	if cfg.Scheduler != config.SchedGTO || cfg.Interpreter || cycle < sm.bSkip {
		return false
	}
	// The establishment scan models SFU closers as blocked while the
	// port's initiation interval runs, but memoization can issue such a
	// warp through the probe path — the precomputed schedule would
	// diverge from live ticking. No batch windows with memoization on.
	if sm.memo != nil {
		return false
	}
	// The greedy warp must issue in the window's very first slot. This
	// keeps the establishment scan cheap on ticks where no window is
	// plausible, and guarantees the greedy warp is a participant from
	// the first cycle on (the DataDep blame argument above).
	g := sm.greedy
	if g == nil || !g.valid || g.idle || g.depStalled {
		return false
	}
	in := g.exec.CurrentSop()
	if in == nil || in.Class != isa.ClassALU || !g.exec.Straightline() {
		return false
	}
	if g.exec.Prog.Decoded().RunLen[in.PC] < 2 || g.sb.ConflictsSop(in) {
		return false
	}
	// Non-warp actors, as in quiescent(): any of these acting during the
	// window would interleave with the replayed schedule.
	if len(sm.decompRetry) > 0 || len(sm.replayQ) > 0 || !sm.awc.Idle() {
		return false
	}
	// Warps: every valid warp with a current instruction enters the
	// simulation — mid-run warps as participants, boundary-headed warps
	// as closers — in GTO order, so bScr index order is scheduler visit
	// order among non-movers. Done and at-barrier warps are stable
	// (participants issue no barriers and cannot exit mid-run; their
	// idle blame is irrelevant — the blocked greedy warp raises the
	// higher-precedence dep flag on every failing slot).
	if len(sm.bSlab) < len(sm.warps)*bPendCap {
		// One-shot scratch pre-sizing (bSlab also backs pend below). The
		// caps are the structural bounds — one part per warp slot, one
		// gap entry per window cycle, NumSchedulers issues per cycle —
		// so steady state never grows them; appends stay as safe
		// fallbacks if a bound is ever loosened.
		nw := len(sm.warps)
		sm.bSlab = make([]bSimOp, nw*bPendCap)
		sm.bScr = make([]bPart, 0, nw)
		sm.bOrd = make([]int32, 0, nw)
		sm.bIssued = make([]int32, 0, nw)
		sm.bParts = make([]*warpCtx, 0, nw)
		sm.bPartOps = make([][]isa.Superop, 0, nw)
		sm.bEvents = make([]bEvt, 0, cfg.NumSchedulers*batchWindowCap)
		sm.bGapKind = make([]stats.StallKind, 0, batchWindowCap)
		sm.bGapW = make([]int32, 0, batchWindowCap)
		sm.bGapC = make([]obs.Cause, 0, batchWindowCap)
	}
	horizon := cycle + batchWindowCap
	np := 0
	gi := -1
	for _, wi := range sm.order {
		ww := sm.warps[wi]
		if !ww.valid {
			continue
		}
		in2 := ww.exec.CurrentSop()
		if in2 == nil {
			continue
		}
		if np == 255 {
			return false // bEvt.part is a uint8
		}
		if np == len(sm.bScr) {
			sm.bScr = append(sm.bScr, bPart{
				pend: sm.bSlab[np*bPendCap : np*bPendCap : (np+1)*bPendCap],
			})
		}
		p := &sm.bScr[np]
		p.w = ww
		p.pg, p.pp = ww.sb.Masks()
		p.pend, p.head = p.pend[:0], 0
		d2 := ww.exec.Prog.Decoded()
		p.ops, p.pc = d2.Ops, in2.PC
		if in2.Class == isa.ClassALU && ww.exec.Straightline() && d2.RunLen[in2.PC] >= 1 {
			p.end = in2.PC + d2.RunLen[in2.PC]
			p.cl = clRun
			if ww == g {
				gi = np
			}
		} else {
			// Closer. The store-buffer and replay-queue gates are frozen
			// for the window's duration (stores drain and replays
			// resolve only via events or aged drains, which clamp the
			// horizon or abort via touch), so the sub-kind is decided
			// once here.
			p.end = 0
			gate := true // boundary op's port gate open at `cycle`
			switch in2.Class {
			case isa.ClassMem:
				switch {
				case in2.GlobalMem && in2.StoreOp &&
					len(sm.storeBuf) >= storeBufCap && !sm.canEvictStore():
					p.cl, gate = clMemSB, false
				case in2.GlobalMem && ww.replay != nil:
					p.cl, gate = clMemRp, false
				default:
					p.cl, gate = clMem, cycle >= sm.lsuFree
				}
			case isa.ClassSFU:
				p.cl, gate = clSFU, cycle >= sm.sfuFree
			default:
				p.cl = clOther
			}
			if gate && !ww.sb.ConflictsSop(in2) {
				// A ready closer: its boundary op wins an issue slot
				// within a cycle or two (only a standing supply of
				// unblocked participants ahead of it in visit order
				// could shield it for longer, and the simulation cost
				// of discovering such windows outweighs them), so the
				// window is not worth simulating. Bail mid-scan with
				// the same exponential backoff as a short-window
				// failure: on memory-active phases one ready closer is
				// followed by another, and the O(warps) scan every
				// cycle is the establishment path's dominant cost.
				if sm.bSkipLen < 4 {
					sm.bSkipLen = 4
				} else if sm.bSkipLen < 256 {
					sm.bSkipLen *= 2
				}
				sm.bSkip = cycle + sm.bSkipLen
				return false
			}
		}
		np++
	}
	if gi < 0 {
		return false
	}
	parts := sm.bScr[:np]
	// A retirable CTA means the normal tick would retire it and dispatch
	// fresh work.
	for _, cta := range sm.ctas {
		if cta.liveWarps != 0 {
			continue
		}
		retirable := true
		for _, ww := range cta.warps {
			if ww.inFlight > 0 || ww.pendingLoads > 0 || ww.replay != nil {
				retirable = false
				break
			}
		}
		if retirable {
			return false
		}
	}
	// Store buffer: a due drain acts now; future aging bounds the window.
	bufFull := len(sm.storeBuf) >= storeBufCap*3/4
	for _, se := range sm.storeBuf {
		if se.state != sbPending {
			continue
		}
		if bufFull || cycle-se.lastTouch >= storeDrainAge {
			return false
		}
		if t := se.lastTouch + storeDrainAge; t < horizon {
			horizon = t
		}
	}
	// Writeback ring: participants' own pending entries seed their
	// simulated in-flight FIFOs (scanned in due order); anything else —
	// another warp's writeback, a load-line completion, an assist
	// completion — acts outside the plan and clamps the horizon.
	partOf := sm.bPartOf
	if cap(partOf) < len(sm.warps) {
		partOf = make([]int16, len(sm.warps))
		sm.bPartOf = partOf
	}
	partOf = partOf[:len(sm.warps)]
	for i := range partOf {
		partOf[i] = -1
	}
	for i := range parts {
		partOf[parts[i].w.id] = int16(i)
	}
	for d := uint64(1); d <= sm.wbMask; d++ {
		due := cycle + d
		bucket := sm.wbRing[due&sm.wbMask]
		for i := range bucket {
			rec := &bucket[i]
			if rec.kind == wbWarp {
				if pi := partOf[rec.w.id]; pi >= 0 {
					p := &parts[pi]
					p.pend = append(p.pend, bSimOp{due: due, sop: rec.sop})
					continue
				}
			}
			if due < horizon {
				horizon = due
			}
		}
	}
	if horizon-cycle < batchMinWindow {
		return false // too short to beat the per-cycle path
	}
	// Simulate the scheduler over the participants and closers, cycle by
	// cycle, into the event schedule and the per-cycle gap tables.
	sched := cfg.NumSchedulers
	lat := uint64(cfg.ALULatency)
	ord := sm.bOrd[:0]
	for i := range parts {
		ord = append(ord, int32(i))
	}
	events := sm.bEvents[:0]
	gapK := sm.bGapKind[:0]
	gapW := sm.bGapW[:0]
	gapC := sm.bGapC[:0]
	blame := sm.attr != nil
	issued := sm.bIssued[:0]
	gcur := gi
	until := horizon
	c := cycle
	// Cached gap classification. Warp readiness only changes at simulated
	// writeback retires and at the lsuFree/sfuFree thresholds; between
	// those points every zero-issue cycle replays identically, so the
	// classification is computed once per change (dirty) and zero-issue
	// spans are jumped over wholesale below.
	dirty := true
	ckind := stats.DataDepStall
	var cbw int32
	var cbc obs.Cause
simloop:
	for c < horizon {
		if c == sm.lsuFree || c == sm.sfuFree {
			dirty = true // a port freed: mem/sfu blame causes may shift
		}
		for i := range parts {
			p := &parts[i]
			for p.head < len(p.pend) && p.pend[p.head].due <= c {
				s := p.pend[p.head].sop
				p.pg[0] &^= s.SetG[0]
				p.pg[1] &^= s.SetG[1]
				p.pg[2] &^= s.SetG[2]
				p.pg[3] &^= s.SetG[3]
				p.pp &^= s.SetP
				p.head++
				dirty = true
			}
		}
		issued = issued[:0]
		for k := 0; k < sched; k++ {
			pi := -1
			if !parts[gcur].blocked() {
				pi = gcur
			} else {
				for _, oi := range ord {
					if int(oi) == gcur {
						continue
					}
					p := &parts[oi]
					if p.blocked() {
						continue
					}
					switch p.cl {
					case clRun:
						pi = int(oi)
					case clMem:
						if c < sm.lsuFree {
							continue
						}
					case clSFU:
						if c < sm.sfuFree {
							continue
						}
					case clMemSB, clMemRp:
						continue
					}
					if pi < 0 {
						// A closer would win this slot: its boundary op
						// is scheduler-visible, so the window ends
						// before this cycle, which re-runs through the
						// normal path (re-deriving this cycle's earlier
						// slots identically).
						until = c
						for len(events) > 0 && events[len(events)-1].off == uint16(c-cycle) {
							events = events[:len(events)-1]
						}
						break simloop
					}
					break
				}
			}
			if pi < 0 {
				break
			}
			p := &parts[pi]
			s := &p.ops[p.pc]
			pe := append(p.pend, bSimOp{})
			j := len(pe) - 1
			for j > p.head && pe[j-1].due > c+lat {
				pe[j] = pe[j-1]
				j--
			}
			pe[j] = bSimOp{due: c + lat, sop: s}
			p.pend = pe
			p.pg[0] |= s.SetG[0]
			p.pg[1] |= s.SetG[1]
			p.pg[2] |= s.SetG[2]
			p.pg[3] |= s.SetG[3]
			p.pp |= s.SetP
			p.pc++
			gcur = pi
			events = append(events, bEvt{off: uint16(c - cycle), part: uint8(pi)})
			issued = append(issued, int32(pi))
			if p.pc == p.end {
				// p's run ends here: the window closes before this
				// cycle, which re-runs through the normal path (and may
				// dual-issue the op that follows the run).
				until = c
				for len(events) > 0 && events[len(events)-1].off == uint16(c-cycle) {
					events = events[:len(events)-1]
				}
				break simloop
			}
		}
		// Classify this cycle's failing slots, if any, exactly as
		// issueSlot would: the blocked greedy participant raises dep
		// first; unblocked-but-port-gated closers raise memS/compS, in
		// visit order (bScr order — closers never move, participants
		// never raise these flags). An unblocked, ungated closer cannot
		// be live here: the slot loop would have ended the window.
		if len(issued) < sched {
			if dirty {
				dirty = false
				ckind, cbw, cbc = stats.DataDepStall, 0, 0
				compW := int32(-1)
				var compC obs.Cause
				for i := range parts {
					p := &parts[i]
					if p.cl == clRun || p.blocked() {
						continue
					}
					switch p.cl {
					case clMem, clMemSB, clMemRp:
						ckind = stats.MemoryStall
						if blame {
							cbw = int32(p.w.id)
							switch {
							case c < sm.lsuFree:
								cbc = obs.CauseLSUBusy
							case p.cl == clMemSB:
								cbc = obs.CauseStoreBufFull
							default:
								// pf.lines is frozen inside a window (fills
								// abort it), so this matches the live tick.
								cbc = sm.mshrCause()
							}
						}
					case clSFU:
						if compW < 0 {
							compW, compC = int32(p.w.id), obs.CauseSFUBusy
						}
					}
					if ckind == stats.MemoryStall {
						break
					}
				}
				if ckind != stats.MemoryStall && compW >= 0 {
					ckind, cbw, cbc = stats.ComputeStall, compW, compC
				}
			}
			gapK = append(gapK, ckind)
			gapW = append(gapW, cbw)
			gapC = append(gapC, cbc)
		} else {
			gapK = append(gapK, stats.DataDepStall)
			gapW = append(gapW, 0)
			gapC = append(gapC, 0)
		}
		// Re-place issued participants at the back of the visit order,
		// in warp slot order among themselves.
		for i := 1; i < len(issued); i++ {
			for j := i; j > 0 && parts[issued[j]].w.id < parts[issued[j-1]].w.id; j-- {
				issued[j], issued[j-1] = issued[j-1], issued[j]
			}
		}
		prev := int32(-1)
		for _, pi := range issued {
			if pi == prev {
				continue
			}
			prev = pi
			for x, oi := range ord {
				if oi == pi {
					copy(ord[x:], ord[x+1:])
					ord[len(ord)-1] = pi
					break
				}
			}
		}
		if len(issued) == 0 {
			// Nothing issued and nothing moved: every cycle until the
			// next simulated writeback retire or port-free threshold
			// replays this one exactly (no scoreboard release can unblock
			// a warp, no gate can open). Jump there, filling the gap
			// tables with the cached classification.
			next := horizon
			for i := range parts {
				p := &parts[i]
				if p.head < len(p.pend) && p.pend[p.head].due < next {
					next = p.pend[p.head].due
				}
			}
			if c < sm.lsuFree && sm.lsuFree < next {
				next = sm.lsuFree
			}
			if c < sm.sfuFree && sm.sfuFree < next {
				next = sm.sfuFree
			}
			for c+1 < next {
				gapK = append(gapK, ckind)
				gapW = append(gapW, cbw)
				gapC = append(gapC, cbc)
				c++
			}
		}
		c++
	}
	if until > c {
		until = c
	}
	sm.bOrd, sm.bIssued = ord, issued
	sm.bEvents = events
	sm.bGapKind, sm.bGapW, sm.bGapC = gapK, gapW, gapC
	if until-cycle < batchMinWindow {
		if sm.bSkipLen < 4 {
			sm.bSkipLen = 4
		} else if sm.bSkipLen < 256 {
			sm.bSkipLen *= 2
		}
		sm.bSkip = cycle + sm.bSkipLen
		return false
	}
	bp, bo := sm.bParts[:0], sm.bPartOps[:0]
	for i := range parts {
		bp = append(bp, parts[i].w)
		bo = append(bo, parts[i].ops)
	}
	sm.bParts, sm.bPartOps = bp, bo
	sm.bEvtHead = 0
	sm.bValid = true
	sm.bStart, sm.bUntil = cycle, until
	// The replay never runs rebuildOrder; force a full rebuild — which
	// reproduces the incremental maintenance exactly — at the first
	// normal tick after the window, off the final lastIssueCycle values.
	sm.orderDirty = true
	return true
}

// batchTick replays one precomputed cycle of the batch window: due
// writebacks retire first (participants' own chains — everything else
// is past the horizon), then the cycle's scheduled issues execute as
// macro-steps through core.StepRun with the per-op architected effects
// (scoreboard marks, writeback ring entries, instruction and class
// counters, greedy and lastIssueCycle updates) applied exactly as
// issueRegular would, and the slot accounting — AWC utilization notes
// in slot order, issue-slot stats, stall attribution — replayed from
// the window's constant classification. Consecutive same-warp schedule
// entries are consecutive issue slots and run as one StepRun call.
func (sm *SM) batchTick(cycle uint64) {
	sm.wbPop(cycle)
	sm.cycle = cycle
	sched := sm.sim.Cfg.NumSchedulers
	lat := uint64(sm.sim.Cfg.ALULatency)
	off := uint16(cycle - sm.bStart)
	k := 0
	for sm.bEvtHead < len(sm.bEvents) && sm.bEvents[sm.bEvtHead].off == off {
		pi := sm.bEvents[sm.bEvtHead].part
		sm.bEvtHead++
		n := 1
		for sm.bEvtHead < len(sm.bEvents) &&
			sm.bEvents[sm.bEvtHead].off == off && sm.bEvents[sm.bEvtHead].part == pi {
			sm.bEvtHead++
			n++
		}
		w := sm.bParts[pi]
		ops := sm.bPartOps[pi]
		pc := w.exec.PC
		for j := 0; j < n; j++ {
			sop := &ops[pc+j]
			w.sb.MarkSop(sop)
			w.inFlight++
			sm.wbAdd(cycle+lat, wbRec{kind: wbWarp, sop: sop, w: w})
		}
		ti, ok := w.exec.StepRun(n)
		if !ok || w.exec.Err != nil {
			err := w.exec.Err
			if err == nil {
				err = fmt.Errorf("step refused inside straightline run at pc %d", w.exec.PC)
			}
			sm.fail(fmt.Errorf("gpu: sm%d warp %d: %w", sm.id, w.id, err))
			return
		}
		w.lastIssueCycle = cycle
		sm.greedy = w
		un := uint64(n)
		sm.stat.WarpInstrs += un
		sm.stat.ThreadInstrs += ti
		sm.stat.ALUInstrs += un // countClass: runs are pure ALU
		sm.stat.IssueSlots[stats.Active] += un
		for j := 0; j < n; j++ {
			sm.awc.NoteIssueSlot(true)
		}
		k += n
	}
	if k < sched {
		n := uint64(sched - k)
		kind := sm.bGapKind[off]
		sm.stat.IssueSlots[kind] += n
		if sm.attr != nil {
			if kind == stats.DataDepStall {
				// A failing slot visits the greedy warp — the last
				// issuer — first, and always finds it scoreboard-
				// blocked (an unblocked participant would have issued).
				sm.attr.Charge(sm.greedy.id, obs.CauseScoreboard, n)
			} else {
				sm.attr.Charge(int(sm.bGapW[off]), sm.bGapC[off], n)
			}
		}
		sm.awc.NoteIdleSlots(sched - k)
	}
	sm.qTry = k == 0
}

// issueSlot tries to issue one instruction and classifies the slot. A
// slot that issues nothing is classified by classify (Memory > Compute >
// DataDep > Idle, shared with quiescent) and, when attribution is on,
// charged to exactly one (warp, cause) pair via chargeSlot.
func (sm *SM) issueSlot() stats.StallKind {
	var f slotFlags
	if sm.attr != nil {
		f.initBlame()
	}

	// High-priority assist warps issue with precedence (Section 3.2.3):
	// they are the fill critical path that blocked warps are waiting on,
	// and killing their latency is what keeps CABA competitive with
	// dedicated logic.
	for _, e := range sm.awc.Entries() {
		if e.Pri == core.PriHigh && e.Staged > 0 {
			ok, dep, memS, compS := sm.tryIssueAssist(e)
			if ok {
				return stats.Active
			}
			f.dep = f.dep || dep
			f.memS = f.memS || memS
			f.compS = f.compS || compS
			if f.blame {
				f.noteAssist(e.Warp, dep, memS, compS)
			}
		}
	}

	// GTO: greedy on the last warp, then oldest (least-recently issued).
	// LRR skips the greedy step and rotates.
	if sm.sim.Cfg.Scheduler == config.SchedGTO {
		if g := sm.greedy; g != nil && g.valid && sm.tryWarp(g, &f) {
			return stats.Active
		}
	}
	for _, wi := range sm.order {
		w := sm.warps[wi]
		if w == sm.greedy {
			continue
		}
		if sm.tryWarp(w, &f) {
			sm.greedy = w
			return stats.Active
		}
	}

	// Idle slot: low-priority assist warps (Section 3.2.3 — scheduled
	// only during idle cycles).
	for _, e := range sm.awc.LowEntries() {
		if e.Staged == 0 {
			continue
		}
		if ok, _, _, _ := sm.tryIssueAssist(e); ok {
			return stats.Active
		}
		if f.blame && f.idleAW < 0 {
			f.idleAW = e.Warp
		}
	}

	kind := classify(&f)
	if sm.attr != nil {
		sm.chargeSlot(kind, &f)
	}
	return kind
}

// tryWarp attempts to issue for one warp: its high-priority assist warp
// first (which takes precedence over the parent, Section 3.2.3), then its
// own next instruction.
func (sm *SM) tryWarp(w *warpCtx, f *slotFlags) bool {
	if !w.valid {
		return false
	}
	// Replay verdicts already proven: a dependence failure (and its blame
	// pair) holds until one of this warp's scoreboard bits clears; a
	// done/at-barrier verdict holds until a barrier release or a fresh
	// CTA placement.
	if w.depStalled {
		f.dep = true
		if f.blame && f.depW < 0 {
			f.depW, f.depC = w.id, sm.depCause(w)
		}
		return false
	}
	if w.idle {
		if f.blame {
			f.noteIdleWarp(w)
		}
		return false
	}
	in := w.exec.CurrentSop()
	if in == nil {
		// Done or at barrier: contributes to idle.
		w.idle = true
		if f.blame {
			f.noteIdleWarp(w)
		}
		return false
	}
	if w.sb.ConflictsSop(in) {
		w.depStalled = true
		f.dep = true
		if f.blame && f.depW < 0 {
			f.depW, f.depC = w.id, sm.depCause(w)
		}
		return false
	}
	ok, memS, compS := sm.portsAvailable(in)
	if !ok {
		// A saturated SFU port is exactly where the memoization use case
		// adds throughput: a result-cache hit issues through a probe
		// assist instead of waiting for the port.
		if compS && sm.memo != nil && in.Class == isa.ClassSFU && sm.tryMemoIssue(w, in) {
			return true
		}
		f.memS = f.memS || memS
		f.compS = f.compS || compS
		if f.blame {
			if memS && f.memW < 0 {
				f.memW, f.memC = w.id, sm.portCause(in)
			} else if compS && f.compW < 0 {
				f.compW, f.compC = w.id, sm.portCause(in)
			}
		}
		return false
	}
	// One load at a time may sit in the replay queue per warp: a second
	// global access waits for the first's MSHR-overflow lines to drain.
	if in.GlobalMem && w.replay != nil {
		f.memS = true
		if f.blame && f.memW < 0 {
			f.memW, f.memC = w.id, sm.mshrCause()
		}
		return false
	}
	sm.issueRegular(w, in)
	return true
}

// rebuildOrder maintains the scheduling order. LRR rotates round-robin
// from the slot after the last issuer every tick. GTO (oldest-first,
// stable on warp slot) is kept incrementally: a full filter+sort only
// after validity changes (orderDirty); otherwise each warp that issued
// last tick is re-placed at the back, which reproduces the stable sort
// exactly — issued warps share the previous tick's (maximal) issue cycle,
// and ties within that group are restored to slot order.
func (sm *SM) rebuildOrder() {
	if sm.sim.Cfg.Scheduler == config.SchedLRR {
		sm.issuedBuf = sm.issuedBuf[:0]
		sm.order = sm.order[:0]
		start := 0
		if sm.greedy != nil {
			start = sm.greedy.id + 1
		}
		n := len(sm.warps)
		for i := 0; i < n; i++ {
			wi := (start + i) % n
			if sm.warps[wi].valid {
				sm.order = append(sm.order, int32(wi))
			}
		}
		return
	}
	if sm.orderDirty {
		sm.orderDirty = false
		sm.issuedBuf = sm.issuedBuf[:0]
		sm.order = sm.order[:0]
		for i, w := range sm.warps {
			if w.valid {
				sm.order = append(sm.order, int32(i))
			}
		}
		cyc := func(wi int32) uint64 { return sm.warps[wi].lastIssueCycle }
		for i := 1; i < len(sm.order); i++ {
			for j := i; j > 0 && cyc(sm.order[j]) < cyc(sm.order[j-1]); j-- {
				sm.order[j], sm.order[j-1] = sm.order[j-1], sm.order[j]
			}
		}
		return
	}
	if len(sm.issuedBuf) > 0 {
		for _, w := range sm.issuedBuf {
			sm.orderMoveToBack(w)
		}
		sm.issuedBuf = sm.issuedBuf[:0]
	}
}

// orderMoveToBack re-places w (which just issued, so its lastIssueCycle is
// maximal) at the back of the GTO order, keeping equal-cycle ties in warp
// slot order.
func (sm *SM) orderMoveToBack(w *warpCtx) {
	id := int32(w.id)
	pos := -1
	for i, o := range sm.order {
		if o == id {
			pos = i
			break
		}
	}
	if pos < 0 {
		return
	}
	n := len(sm.order)
	copy(sm.order[pos:], sm.order[pos+1:])
	k := n - 1
	for k > pos {
		p := sm.warps[sm.order[k-1]]
		if p.lastIssueCycle != w.lastIssueCycle || p.id <= w.id {
			break
		}
		sm.order[k] = sm.order[k-1]
		k--
	}
	sm.order[k] = id
}

// portsAvailable checks structural hazards for an op class; (ok, memStall,
// compStall).
func (sm *SM) portsAvailable(in *isa.Superop) (bool, bool, bool) {
	switch in.Class {
	case isa.ClassMem:
		if sm.lsuPorts == 0 || sm.cycle < sm.lsuFree {
			return false, true, false
		}
		if in.GlobalMem && in.StoreOp &&
			len(sm.storeBuf) >= storeBufCap && !sm.canEvictStore() {
			return false, true, false
		}
	case isa.ClassSFU:
		if sm.cycle < sm.sfuFree {
			return false, false, true
		}
	case isa.ClassALU:
		if sm.aluPorts == 0 {
			return false, false, true
		}
	}
	return true, false, false
}

// portCause names the specific structural resource behind a
// portsAvailable failure, for stall attribution. Only called (blame
// armed) after portsAvailable returned false for in, so the branches
// mirror its failing conditions exactly.
func (sm *SM) portCause(in *isa.Superop) obs.Cause {
	switch in.Class {
	case isa.ClassMem:
		if sm.lsuPorts == 0 || sm.cycle < sm.lsuFree {
			return obs.CauseLSUBusy
		}
		return obs.CauseStoreBufFull
	case isa.ClassSFU:
		return obs.CauseSFUBusy
	default:
		return obs.CauseALUBusy
	}
}

// canEvictStore reports whether the store buffer has a releasable entry.
func (sm *SM) canEvictStore() bool {
	for _, se := range sm.storeBuf {
		if se.state == sbPending || se.state == sbQueued {
			return true
		}
	}
	return false
}

// findStore returns the buffered entry for lineAddr, or nil.
func (sm *SM) findStore(ln uint64) *storeEntry {
	for _, se := range sm.storeBuf {
		if se.lineAddr == ln {
			return se
		}
	}
	return nil
}

// removeStore unlinks se from the buffer, preserving age order.
func (sm *SM) removeStore(se *storeEntry) {
	for i, x := range sm.storeBuf {
		if x == se {
			sm.storeBuf = append(sm.storeBuf[:i], sm.storeBuf[i+1:]...)
			return
		}
	}
}

// --- Regular instruction issue ---

func (sm *SM) issueRegular(w *warpCtx, in *isa.Superop) {
	// Memoization consults the result cache with the instruction's content
	// hash, read before StepRef moves the register file (a source may
	// alias the destination). A free SFU port always executes directly —
	// probing only pays when the port is the bottleneck (tryMemoIssue) —
	// but misses install their freshly computed result for later reuse.
	var memoKey uint64
	memoMiss := false
	if sm.memo != nil && in.Class == isa.ClassSFU {
		memoKey = memoKeyFor(w.exec, in)
		memoMiss = !sm.memo.lookup(memoKey)
	}
	info, ok := w.exec.StepRef()
	if !ok {
		return
	}
	if w.exec.Err != nil {
		// A kernel-program fault (e.g. an out-of-range shared store) kills
		// the run with a structured error instead of a process panic.
		sm.fail(fmt.Errorf("gpu: sm%d warp %d: %w", sm.id, w.id, w.exec.Err))
		return
	}
	w.lastIssueCycle = sm.cycle
	sm.issuedBuf = append(sm.issuedBuf, w)
	sm.stat.WarpInstrs++
	sm.stat.ThreadInstrs += uint64(popcount32(info.ExecMask))
	sm.countClass(in)

	switch in.Class {
	case isa.ClassALU:
		sm.aluPorts--
		sm.finishAfter(w, in, uint64(sm.sim.Cfg.ALULatency))
	case isa.ClassSFU:
		sm.sfuFree = sm.cycle + 4 // initiation interval
		sm.finishAfter(w, in, uint64(sm.sim.Cfg.SFULatency))
		if memoMiss {
			sm.stat.MemoMisses++
			if sm.tryMemoSave(w, memoKey) {
				sm.memo.insert(memoKey)
				sm.stat.MemoUpdates++
			}
		}
	case isa.ClassMem:
		sm.lsuPorts--
		sm.issueMemory(w, in, info)
	case isa.ClassCtrl:
		sm.handleControl(w, in)
	}
	if w.exec.Done {
		sm.noteWarpDone(w)
	}
}

// finishAfter scoreboards in's destinations for lat cycles. The exec's PC
// moves on, but superops are immutable per kernel, so the ring record
// keeps only the pointer.
func (sm *SM) finishAfter(w *warpCtx, in *isa.Superop, lat uint64) {
	w.sb.MarkSop(in)
	w.inFlight++
	sm.wbAdd(sm.cycle+lat, wbRec{kind: wbWarp, sop: in, w: w})
}

func (sm *SM) handleControl(w *warpCtx, in *isa.Superop) {
	switch in.Op {
	case isa.OpBar:
		cta := w.cta
		cta.atBarrier++
		if cta.atBarrier >= cta.liveWarps {
			cta.atBarrier = 0
			for _, ww := range cta.warps {
				ww.exec.ReleaseBarrier()
				ww.idle = false
			}
		}
	}
}

// noteWarpDone handles a warp that finished execution on this issue
// (explicit exit or falling off the program end).
func (sm *SM) noteWarpDone(w *warpCtx) {
	cta := w.cta
	cta.liveWarps--
	if cta.liveWarps == 0 {
		sm.drainingCTAs++
	}
	// A warp exiting releases any barrier its siblings wait at.
	if cta.liveWarps > 0 && cta.atBarrier >= cta.liveWarps {
		cta.atBarrier = 0
		for _, ww := range cta.warps {
			if !ww.exec.Done {
				ww.exec.ReleaseBarrier()
				ww.idle = false
			}
		}
	}
}

// issueMemory handles shared/global/staging accesses of regular warps.
func (sm *SM) issueMemory(w *warpCtx, in *isa.Superop, info *core.StepInfo) {
	if !in.GlobalMem {
		// Shared memory: fixed short latency.
		sm.finishAfter(w, in, uint64(sm.sim.Cfg.L1Latency))
		return
	}
	lines := coalesceInto(&sm.lineBuf, &info.Addrs, info.ExecMask, sm.sim.Cfg.LineSize)
	sm.lsuFree = sm.cycle + uint64(len(lines)) // coalescer throughput

	if in.Op == isa.OpStGlobal || in.Op == isa.OpAtomAdd {
		for _, ln := range lines {
			sm.storeToBuffer(w, ln, info)
		}
	}
	if in.Op == isa.OpLdGlobal || in.Op == isa.OpAtomAdd {
		req := &loadReq{warp: w, sop: in, issued: sm.cycle}
		w.sb.MarkSop(in)
		w.inFlight++
		w.pendingLoads++
		trained := false
		for _, ln := range lines {
			if in.Op == isa.OpLdGlobal && sm.l1Lookup(ln, req) {
				continue // L1 hit path scheduled
			}
			// Miss (or atomic, which bypasses L1).
			req.linesPending++
			sm.stat.L1Misses++
			// The stride unit trains on the access's first missing line
			// (divergent accesses would otherwise feed it intra-access
			// deltas instead of the stream's stride).
			if sm.pf != nil && !trained && in.Op == isa.OpLdGlobal {
				trained = true
				sm.pfTrain(w, in.PC, ln)
			}
			sm.fetchOrReplay(req, ln)
		}
		if len(req.todo) > 0 {
			w.replay = req
			sm.replayQ = append(sm.replayQ, req)
		}
		if req.linesPending == 0 && len(req.todo) == 0 {
			// Guard predicate disabled every lane: nothing to wait for.
			w.sb.ClearSop(in)
			w.depStalled = false
			w.inFlight--
			w.pendingLoads--
		}
	} else {
		// Pure store: retires once buffered.
		sm.finishAfter(w, in, 1)
	}
}

// l1Lookup probes the L1 for a load line; on hit it schedules completion
// (including any capacity-mode decompression) and returns true.
func (sm *SM) l1Lookup(ln uint64, req *loadReq) bool {
	if !sm.l1.Lookup(ln, false) {
		return false
	}
	sm.stat.L1Hits++
	if sm.pf != nil && sm.pf.noteHit(ln) {
		sm.stat.PrefetchUseful++
	}
	lat := uint64(sm.sim.Cfg.L1Latency)
	// Figure 13: L1-resident compressed lines pay decompression on every
	// hit.
	if sm.sim.Design.L1TagMult > 1 {
		if st := sm.sim.Dom.State(ln); st.IsCompressed() && sm.l1.LineSizeOf(ln) < sm.sim.Cfg.LineSize {
			switch sm.sim.Design.Decomp {
			case config.DecompHW:
				d, _ := compress.HWLatency(sm.sim.Design.Alg)
				lat += uint64(d)
			case config.DecompCABA:
				// Run the decompression assist warp before the hit
				// completes.
				req.linesPending++
				// L1-resident lines were checked on fill; never injected.
				sm.triggerDecompAW(ln, st, req.warp.id, false, cont{kind: contLoadLineDone, req: req})
				return true
			}
		}
	}
	req.linesPending++
	sm.wbAdd(sm.cycle+lat, wbRec{kind: wbLoad, req: req})
	return true
}

// fetchOrReplay sends a missing line to memory, or queues it for replay
// when the MSHR is full (the LSU retries it in later cycles, as real
// coalescers do with split transactions).
func (sm *SM) fetchOrReplay(req *loadReq, ln uint64) {
	if primary, ok := sm.mshr.Add(ln, req); ok {
		if primary {
			if sm.tr != nil {
				sm.traceMSHRBegin(ln)
			}
			sm.sim.Sys.ReadLine(sm.id, ln, &fillCtx{kind: fillLoad, load: req})
		}
		return
	}
	req.todo = append(req.todo, ln)
}

// processReplays retries MSHR-overflow lines, one LSU slot per line.
func (sm *SM) processReplays() {
	for len(sm.replayQ) > 0 {
		req := sm.replayQ[0]
		for len(req.todo) > 0 {
			if sm.cycle < sm.lsuFree || sm.mshr.Full() {
				return
			}
			ln := req.todo[0]
			if primary, ok := sm.mshr.Add(ln, req); ok {
				req.todo = req.todo[1:]
				sm.lsuFree = sm.cycle + 1
				if primary {
					if sm.tr != nil {
						sm.traceMSHRBegin(ln)
					}
					sm.sim.Sys.ReadLine(sm.id, ln, &fillCtx{kind: fillLoad, load: req})
				}
				continue
			}
			return
		}
		req.todo = nil
		if req.warp.replay == req {
			req.warp.replay = nil
		}
		sm.replayQ = sm.replayQ[1:]
	}
}

// loadLineDone retires one line of a load; the last line completes the
// instruction.
func (sm *SM) loadLineDone(req *loadReq) {
	sm.touch()
	req.linesPending--
	if req.linesPending > 0 {
		return
	}
	w := req.warp
	w.sb.ClearSop(req.sop)
	w.depStalled = false
	w.inFlight--
	w.pendingLoads--
	sm.stat.LoadCount++
	sm.stat.LoadLatTotal += sm.cycle - req.issued
}

// coalesceInto merges per-lane addresses into unique cache lines using
// the caller's scratch buffer.
func coalesceInto(buf *[]uint64, addrs *[core.WarpSize]uint64, mask uint32, lineSize int) []uint64 {
	lines := (*buf)[:0]
	for lane := 0; lane < core.WarpSize; lane++ {
		if mask&(1<<lane) == 0 {
			continue
		}
		la := addrs[lane] &^ uint64(lineSize-1)
		found := false
		for _, x := range lines {
			if x == la {
				found = true
				break
			}
		}
		if !found {
			lines = append(lines, la)
		}
	}
	*buf = lines
	return lines
}

// --- Store buffer ---

// storeToBuffer merges a store's words into the pending-store buffer.
func (sm *SM) storeToBuffer(w *warpCtx, ln uint64, info *core.StepInfo) {
	se := sm.findStore(ln)
	if se == nil {
		if len(sm.storeBuf) >= storeBufCap {
			sm.evictOldestStore()
		}
		se = &storeEntry{lineAddr: ln}
		sm.storeBuf = append(sm.storeBuf, se)
	}
	se.warp = w.id
	se.lastTouch = sm.cycle
	for lane := 0; lane < core.WarpSize; lane++ {
		if info.ExecMask&(1<<lane) == 0 {
			continue
		}
		if info.Addrs[lane]&^uint64(sm.sim.Cfg.LineSize-1) != ln {
			continue
		}
		word := (info.Addrs[lane] % uint64(sm.sim.Cfg.LineSize)) / 4
		se.coverage |= 1 << word
		if info.Width == 8 && word < 31 {
			se.coverage |= 1 << (word + 1)
		}
	}
}

// evictOldestStore releases the oldest pending entry uncompressed
// (Section 4.2.2: on overflow, stores go out raw).
func (sm *SM) evictOldestStore() {
	for i, se := range sm.storeBuf {
		if se.state != sbPending && se.state != sbQueued {
			continue
		}
		se.released = true // abandon any queued compression chain
		sm.retryArmed = true
		sm.storeBuf = append(sm.storeBuf[:i], sm.storeBuf[i+1:]...)
		sm.stat.StoreBufferFlushes++
		if sm.sim.Design.Scope == config.ScopeL2 {
			sm.sim.Dom.SetRaw(se.lineAddr)
		}
		sm.sim.Sys.WriteLine(sm.id, se.lineAddr)
		return
	}
}

// drainStores ages the buffer and launches compression/writeback.
// beginDrain may release the entry synchronously (removing it from the
// buffer), so the walk re-checks the slot before advancing.
func (sm *SM) drainStores() {
	for i := 0; i < len(sm.storeBuf); {
		se := sm.storeBuf[i]
		if se.state == sbPending &&
			(sm.cycle-se.lastTouch >= storeDrainAge || len(sm.storeBuf) >= storeBufCap*3/4) {
			sm.beginDrain(se)
		}
		if i < len(sm.storeBuf) && sm.storeBuf[i] == se {
			i++
		}
	}
}

// beginDrain starts writing a store line back: a partial overwrite of a
// compressed line fetches it first (Section 4.2.2's worst case), then the
// line is compressed per the design and sent to L2.
func (sm *SM) beginDrain(se *storeEntry) {
	full := se.coverage == 0xFFFFFFFF
	if !full && sm.sim.Design.Compressing() && sm.sim.Dom.State(se.lineAddr).IsCompressed() {
		se.state = sbRMW
		sm.sim.Sys.ReadLine(sm.id, se.lineAddr, &fillCtx{kind: fillRMW, se: se})
		return
	}
	sm.compressAndWrite(se)
}

// compressAndWrite runs the design's compression path and releases the
// line.
func (sm *SM) compressAndWrite(se *storeEntry) {
	design := sm.sim.Design
	if design.Scope != config.ScopeL2 {
		// Base and HW-BDI-Mem: the SM sends raw lines.
		sm.releaseStore(se)
		return
	}
	switch design.Decomp {
	case config.DecompIdeal:
		sm.domCompressLine(se.lineAddr)
		sm.releaseStore(se)
	case config.DecompHW:
		se.state = sbCompress
		_, lat := compress.HWLatency(design.Alg)
		sm.sim.Q.Push(float64(sm.cycle+uint64(lat)), actHWCompress{sm: sm, se: se})
	case config.DecompCABA:
		if sm.compDisabled {
			sm.sim.Dom.SetRaw(se.lineAddr)
			sm.releaseStore(se)
			return
		}
		sm.beginCABACompression(se)
	default:
		sm.releaseStore(se)
	}
}

// releaseStore sends the (possibly compressed) line to L2 and frees the
// buffer slot.
func (sm *SM) releaseStore(se *storeEntry) {
	sm.touch()
	se.released = true
	sm.retryArmed = true
	sm.removeStore(se)
	sm.sim.Sys.WriteLine(sm.id, se.lineAddr)
}

// --- CABA integration ---

// compressionChain builds the routine sequence for one line: the
// zeros/repeat check, then encoding tests starting from the last
// successful encoding (the paper's single-encoding fast path for
// homogeneous data).
func (sm *SM) compressionChain(alg compress.AlgID) []core.RoutineID {
	switch alg {
	case compress.AlgBDI:
		chain := []core.RoutineID{core.RtBDICompSpecial}
		if sm.hasLastGood {
			chain = append(chain, core.RtBDICompTest+core.RoutineID(sm.lastGoodEnc))
		}
		for _, enc := range core.BDICompTestOrder {
			if sm.hasLastGood && enc == sm.lastGoodEnc {
				continue
			}
			chain = append(chain, core.RtBDICompTest+core.RoutineID(enc))
		}
		return chain
	case compress.AlgFPC:
		return []core.RoutineID{core.RtFPCComp}
	case compress.AlgCPack:
		return []core.RoutineID{core.RtCPackComp}
	}
	return nil
}

// beginCABACompression queues the line's compression assist-warp chain.
func (sm *SM) beginCABACompression(se *storeEntry) {
	se.state = sbQueued
	se.alg = sm.sim.Design.Alg
	if se.alg == compress.AlgBest {
		// CABA-BestOfAll selects per line with no selection overhead
		// (Section 6.3): pick the oracle's best algorithm, then pay that
		// algorithm's assist-warp cost.
		var line [compress.LineSize]byte
		sm.sim.Dom.ReadRaw(se.lineAddr, line[:])
		best, _ := compress.Compress(compress.AlgBest, line[:])
		se.alg = best.Alg
		if se.alg == compress.AlgNone {
			sm.sim.Dom.SetRaw(se.lineAddr)
			sm.releaseStore(se)
			return
		}
	}
	se.chain = sm.compressionChain(se.alg)
	se.chainPos = 0
	sm.stepCompressionChain(se)
}

// stepCompressionChain triggers the next routine in the chain, retrying
// next cycle when the low-priority AWB partition is full or throttled.
func (sm *SM) stepCompressionChain(se *storeEntry) {
	if se.chainPos >= len(se.chain) {
		// Nothing fit: release raw. A long failure streak disables the
		// compression path for this core (incompressible application).
		sm.compFailStreak++
		if sm.compFailStreak >= 3 {
			sm.compDisabled = true
		}
		sm.sim.Dom.SetRaw(se.lineAddr)
		sm.releaseStore(se)
		return
	}
	if !sm.tryCompressStep(se) {
		se.state = sbQueued
		sm.decompRetry = append(sm.decompRetry, pendingTrigger{kind: pendCompress, se: se})
	}
}

// tryCompressStep triggers the current compression-chain routine for se;
// true means the trigger landed (or the entry was already released raw by
// a buffer overflow, which drops the chain).
func (sm *SM) tryCompressStep(se *storeEntry) bool {
	if se.released {
		return true // overflow released the line raw; drop the chain
	}
	rt := sm.sim.AWS.MustGet(se.chain[se.chainPos])
	if !sm.awc.CanTrigger(rt.Priority, se.warp) {
		return false
	}
	ex := sm.newAssistExec(rt)
	sm.sim.Dom.ReadRaw(se.lineAddr, ex.StageIn[:compress.LineSize])
	e := sm.awc.Trigger(rt, se.warp, ex, se, sm.assistOnComplete(se, rt.ID))
	if e == nil {
		sm.releaseAssistExec(ex)
		return false
	}
	se.state = sbCompress
	sm.stat.AssistWarps++
	if sm.tr != nil {
		sm.traceAssistBegin(e, "writeback-compress")
	}
	return true
}

// assistOnComplete derives an assist warp's completion callback from its
// opaque User payload and routine. Keeping the mapping total on the User
// type (rather than capturing ad-hoc closures) is what lets snapshot
// restore reattach callbacks to deserialized AWT entries.
func (sm *SM) assistOnComplete(user any, rtID core.RoutineID) func(*core.Entry) {
	switch u := user.(type) {
	case *storeEntry:
		return func(done *core.Entry) { sm.finishCompressionStep(u, done) }
	case *decompCtx:
		if rtID == core.RtECCCheck {
			return func(fin *core.Entry) { sm.finishECCCheck(u, fin.Exec) }
		}
		return func(fin *core.Entry) { sm.finishDecompression(u, fin.Exec) }
	case *decompPlain:
		return func(fin *core.Entry) {
			// Injection disabled: verify against the backing store and
			// complete — exactly the pre-fault-framework flow.
			sm.verifyDecompression(u.ln, fin.Exec)
			sm.stat.LinesDecompressed++
			sm.runCont(u.done)
		}
	case *memoCtx:
		return func(*core.Entry) { sm.finishMemoProbe(u) }
	}
	// Use-case triggers with no owner payload (prefetches, result-cache
	// installs) still need a restorable completion: snapshot restore
	// rejects AWT entries whose OnComplete cannot be rebuilt.
	switch rtID {
	case core.RtPrefetch, core.RtMemoSave:
		return func(*core.Entry) {}
	}
	return nil
}

// finishCompressionStep consumes one routine's result.
func (sm *SM) finishCompressionStep(se *storeEntry, e *core.Entry) {
	if se.released {
		return // the buffer overflowed and released this line raw
	}
	if e.Exec.Err != nil {
		// Compression routines run on uncorrupted staging input, so an
		// error here is a simulator bug, not an injected fault.
		sm.fail(fmt.Errorf("gpu: assist warp %s: %w", e.Routine.Name, e.Exec.Err))
		return
	}
	ex := e.Exec
	id := se.chain[se.chainPos]
	switch {
	case id == core.RtBDICompSpecial:
		switch ex.Result(core.ResultReg) {
		case 2:
			sm.installCompressed(se, compress.BDIZeros, ex)
			return
		case 1:
			sm.installCompressed(se, compress.BDIRepeat, ex)
			return
		}
	case id >= core.RtBDICompTest && id < core.RtBDICompTest+core.RoutineID(compress.BDINumEncodings):
		if ex.Result(core.ResultReg) == 1 {
			enc := compress.BDIEncoding(id - core.RtBDICompTest)
			sm.lastGoodEnc, sm.hasLastGood = enc, true
			sm.installCompressed(se, enc, ex)
			return
		}
	case id == core.RtFPCComp || id == core.RtCPackComp:
		if ex.Result(core.ResultReg) == 1 {
			size := int(ex.Result(core.SizeReg))
			alg := compress.AlgFPC
			if id == core.RtCPackComp {
				alg = compress.AlgCPack
			}
			st := compress.Compressed{Alg: alg, Enc: 0,
				Data: append([]byte(nil), ex.StageOut[:size]...)}
			sm.compFailStreak = 0
			sm.sim.Dom.SetCompressed(se.lineAddr, st)
			sm.stat.LinesCompressed++
			sm.releaseStore(se)
			return
		}
	}
	// This routine failed: try the next one.
	se.chainPos++
	sm.stepCompressionChain(se)
}

// installCompressed stores a successful BDI compression result.
func (sm *SM) installCompressed(se *storeEntry, enc compress.BDIEncoding, ex *core.Exec) {
	sm.compFailStreak = 0
	size := enc.CompressedSize()
	st := compress.Compressed{Alg: compress.AlgBDI, Enc: uint8(enc),
		Data: append([]byte(nil), ex.StageOut[:size]...)}
	sm.sim.Dom.SetCompressed(se.lineAddr, st)
	sm.stat.LinesCompressed++
	sm.releaseStore(se)
}

// decompCtx tracks one in-flight decompression through the fault-aware
// completion chain: the line, the parent warp (for check-slot borrowing),
// whether this fill was corrupted by the campaign, the decompressed image
// awaiting its ECC check, and the fill continuation. Allocated only when
// injection is active, so the zero-fault fill path stays allocation-free.
type decompCtx struct {
	ln       uint64
	warp     int
	injected bool
	done     cont
	buf      [compress.LineSize]byte
}

// findAssistHost returns a warp slot that can accept a trigger at the
// given priority, preferring the parent warp; when it is busy (e.g. a
// divergent load needing several lines decompressed), any other warp's
// slot is borrowed — the AWT is a centralized per-SM structure
// (Section 3.3), and the parent's dependents are already held by the
// load's scoreboard entry. Returns -1 when every slot is busy.
func (sm *SM) findAssistHost(pri core.Priority, warp int) int {
	if pri != core.PriHigh {
		// Low-priority acceptance is warp-independent (a shared partition
		// cap), so the parent either hosts or nobody does.
		if sm.awc.CanTrigger(pri, warp) {
			return warp
		}
		return -1
	}
	if sm.awc.Full() {
		return -1
	}
	if sm.awc.HighFor(warp) == nil {
		return warp
	}
	n := len(sm.warps)
	for i := 1; i < n; i++ {
		cand := (warp + i) % n
		if sm.awc.HighFor(cand) == nil {
			return cand
		}
	}
	return -1
}

// triggerDecompAW starts (or queues) a high-priority decompression assist
// warp for a line arriving compressed; done runs when it finishes.
// injected marks a fill the fault campaign corrupted, which routes the
// completion through detection and recovery instead of delivering garbage.
func (sm *SM) triggerDecompAW(ln uint64, st compress.Compressed, warp int, injected bool, done cont) {
	sm.touch()
	if _, err := core.DecompRoutineID(st); err != nil {
		sm.fail(fmt.Errorf("gpu: %w", err))
		return
	}
	var dc *decompCtx
	if sm.sim.Sys.Inj != nil {
		dc = &decompCtx{ln: ln, warp: warp, injected: injected, done: done}
	}
	sm.record("decompression assist warp triggered", ln)
	pt := pendingTrigger{kind: pendDecomp, ln: ln, st: st, warp: warp, done: done, dc: dc}
	if !sm.tryDecompTrigger(&pt) {
		sm.decompRetry = append(sm.decompRetry, pt)
	}
}

// tryDecompTrigger triggers the decompression assist warp for a queued
// fill; false means the AWT had no slot and the trigger must retry.
func (sm *SM) tryDecompTrigger(pt *pendingTrigger) bool {
	id, _ := core.DecompRoutineID(pt.st) // validated at trigger time
	rt := sm.sim.AWS.MustGet(id)
	host := sm.findAssistHost(rt.Priority, pt.warp)
	if host < 0 {
		return false
	}
	ex := sm.newAssistExec(rt)
	copy(ex.StageIn, pt.st.Data)
	var user any
	if pt.dc != nil {
		user = pt.dc
	} else {
		user = &decompPlain{ln: pt.ln, done: pt.done}
	}
	e := sm.awc.Trigger(rt, host, ex, user, sm.assistOnComplete(user, id))
	if e == nil {
		sm.releaseAssistExec(ex)
		return false
	}
	sm.stat.AssistWarps++
	if sm.tr != nil {
		sm.traceAssistBegin(e, "fill-decompress")
	}
	return true
}

// verifyDecompression checks the assist warp's output against the backing
// store. The store may legitimately have moved on (a later write to the
// line between compression and this decompression), so only hard failures
// (routine errors) are fatal; mismatches are tolerated but counted.
func (sm *SM) verifyDecompression(ln uint64, ex *core.Exec) {
	if ex.Err != nil {
		sm.fail(fmt.Errorf("gpu: decompression routine failed: %w", ex.Err))
		return
	}
	var truth [compress.LineSize]byte
	sm.sim.Dom.ReadRaw(ln, truth[:])
	if !bytes.Equal(ex.StageOut[:compress.LineSize], truth[:]) {
		sm.stat.DecompMismatches++
	}
}

// finishDecompression is the completion path while fault injection is
// active. A routine error on an injected fill is a detected fault that
// triggers the raw refetch; otherwise the decompressed image is handed to
// the ECC-style check assist warp before the fill's waiters resume.
func (sm *SM) finishDecompression(dc *decompCtx, ex *core.Exec) {
	if ex.Err != nil {
		if dc.injected {
			// The corrupted payload tripped the routine itself (e.g. an
			// out-of-range stage store from a mangled size field).
			sm.stat.FaultsDetected++
			sm.refetchRaw(dc.ln, dc.done)
			return
		}
		sm.fail(fmt.Errorf("gpu: decompression routine failed: %w", ex.Err))
		return
	}
	sm.stat.LinesDecompressed++
	copy(dc.buf[:], ex.StageOut[:compress.LineSize])
	sm.startECCCheck(dc)
}

// startECCCheck triggers the RtECCCheck assist warp over the decompressed
// image. The routine charges the realistic warp-wide checksum cost
// (staging loads + shuffle reduction); the pass/fail decision compares
// the image against the backing store when the routine completes.
func (sm *SM) startECCCheck(dc *decompCtx) {
	if !sm.tryECC(dc) {
		sm.decompRetry = append(sm.decompRetry, pendingTrigger{kind: pendECC, dc: dc})
	}
}

// tryECC triggers the ECC-check assist warp over dc's decompressed image;
// false means no AWT slot was available.
func (sm *SM) tryECC(dc *decompCtx) bool {
	rt := sm.sim.AWS.MustGet(core.RtECCCheck)
	host := sm.findAssistHost(rt.Priority, dc.warp)
	if host < 0 {
		return false
	}
	ex := sm.newAssistExec(rt)
	copy(ex.StageIn, dc.buf[:])
	e := sm.awc.Trigger(rt, host, ex, dc, sm.assistOnComplete(dc, core.RtECCCheck))
	if e == nil {
		sm.releaseAssistExec(ex)
		return false
	}
	sm.stat.AssistWarps++
	if sm.tr != nil {
		sm.traceAssistBegin(e, "ecc-check")
	}
	return true
}

// finishECCCheck resolves the check: a clean image completes the fill; a
// corrupted injected image triggers the raw refetch; a mismatch without
// injection is the same benign compress-vs-write race the zero-fault
// verifier tolerates.
func (sm *SM) finishECCCheck(dc *decompCtx, ex *core.Exec) {
	if ex.Err != nil {
		sm.fail(fmt.Errorf("gpu: ECC check routine failed: %w", ex.Err))
		return
	}
	var truth [compress.LineSize]byte
	sm.sim.Dom.ReadRaw(dc.ln, truth[:])
	if bytes.Equal(dc.buf[:], truth[:]) {
		sm.runCont(dc.done)
		return
	}
	if dc.injected {
		sm.stat.FaultsDetected++
		sm.refetchRaw(dc.ln, dc.done)
		return
	}
	sm.stat.DecompMismatches++
	sm.runCont(dc.done)
}

// refetchRaw fetches the uncompressed copy of a detected-corrupt line
// instead of propagating garbage to the waiters; after runs when the
// clean copy arrives (counted then as the recovery).
func (sm *SM) refetchRaw(ln uint64, after cont) {
	sm.touch()
	sm.record("fault detected; refetching raw line", ln)
	sm.sim.Sys.ReadLineRaw(sm.id, ln, &fillCtx{kind: fillRefetch, after: after})
}

// --- Assist-warp instruction issue ---

// tryIssueAssist issues one staged instruction of an assist warp.
func (sm *SM) tryIssueAssist(e *core.Entry) (ok, dep, memS, compS bool) {
	in := e.Exec.CurrentSop()
	if in == nil || e.Staged == 0 {
		return false, false, false, false
	}
	if e.SB.ConflictsSop(in) {
		return false, true, false, false
	}
	pOK, memS, compS := sm.portsAvailable(in)
	if !pOK {
		return false, false, memS, compS
	}
	info, stepped := e.Exec.StepRef()
	if !stepped {
		return false, false, false, false
	}
	// A routine error (e.g. an out-of-range stage store while chewing on a
	// corrupted payload) marks the exec Done; the entry drains through the
	// normal writeback path and its completion callback sees Exec.Err —
	// the fault-detection path for injected corruption, a fatal error
	// otherwise. No special handling is needed here.
	e.Staged--
	sm.awc.NoteConsumed()
	if e.Exec.Done {
		e.Staged = 0 // discard over-staged slots past the routine's end
	}
	sm.stat.AssistInstrs++
	sm.countClass(in)

	lat := uint64(sm.sim.Cfg.ALULatency)
	switch in.Class {
	case isa.ClassALU:
		sm.aluPorts--
	case isa.ClassSFU:
		sm.sfuFree = sm.cycle + 4
		lat = uint64(sm.sim.Cfg.SFULatency)
	case isa.ClassMem:
		sm.lsuPorts--
		lat = uint64(sm.sim.Cfg.L1Latency)
		if in.GlobalMem {
			// Assist-warp global access (prefetch routine): goes through
			// the normal memory path without blocking the assist warp's
			// completion on the fill.
			for _, ln := range coalesceInto(&sm.awLineBuf, &info.Addrs, info.ExecMask, sm.sim.Cfg.LineSize) {
				if sm.l1.Lookup(ln, false) {
					sm.stat.L1Hits++
					continue
				}
				sm.stat.L1Misses++
				primary, _ := sm.mshr.Add(ln, (*loadReq)(nil))
				if primary {
					if sm.tr != nil {
						sm.traceMSHRBegin(ln)
					}
					if sm.pf != nil {
						sm.pf.lines++ // prefetch-held MSHR entry until its fill
					}
					sm.sim.Sys.ReadLine(sm.id, ln, &fillCtx{kind: fillAssist})
				}
			}
		}
	}
	e.SB.MarkSop(in)
	e.Outstanding++
	sm.wbAdd(sm.cycle+lat, wbRec{kind: wbAssist, sop: in, e: e})
	sm.checkAssistDone(e)
	return true, false, false, false
}

// countClass tallies the issued instruction's class for the energy model.
func (sm *SM) countClass(in *isa.Superop) {
	switch in.Class {
	case isa.ClassALU:
		sm.stat.ALUInstrs++
	case isa.ClassSFU:
		sm.stat.SFUInstrs++
	case isa.ClassMem:
		sm.stat.MemInstrs++
	case isa.ClassCtrl:
		sm.stat.CtrlInstrs++
	}
}

// checkAssistDone retires a finished assist warp and recycles its staging
// buffers (the completion callback, which fires inside Retire, is the last
// reader of the exec's staging output).
func (sm *SM) checkAssistDone(e *core.Entry) {
	if !e.Killed && e.Done() {
		if sm.tr != nil {
			sm.traceAssistEnd(e)
		}
		sm.awc.Retire(e)
		sm.retryArmed = true
		sm.releaseAssistExec(e.Exec)
	}
}

// --- Fill path ---

// onFill handles a line arriving from the memory system.
func (sm *SM) onFill(ln uint64, user any) {
	sm.touch()
	sm.record("fill delivered", ln)
	ctx := user.(*fillCtx)
	if ctx.kind == fillRefetch {
		// The uncompressed recovery copy arrived: the fault is repaired
		// and the original fill's continuation resumes with clean data.
		sm.stat.FaultsRecovered++
		sm.runCont(ctx.after)
		return
	}
	if sm.sim.dbgFetch != nil && ctx.kind == fillLoad {
		if t0, ok := sm.sim.dbgFetch[ln]; ok {
			sm.sim.dbgFetchLat += sm.cycle - t0
			sm.sim.dbgFetchN++
			delete(sm.sim.dbgFetch, ln)
		}
	}
	st := sm.sim.Sys.ArrivesCompressed(ln)
	proceed := cont{kind: contCompleteFill, ln: ln, fill: ctx}
	if !st.IsCompressed() {
		sm.runCont(proceed)
		return
	}
	// Bit-flip injection site: a compressed payload arriving at the SM may
	// have one bit flipped in its in-flight copy — the Domain's backing
	// copy stays intact, modeling a DRAM/bus transfer error. Only
	// decompressing designs are exposed; the ideal decompressor is an
	// oracle and reads the backing truth directly.
	injected := false
	if inj := sm.sim.Sys.Inj; inj != nil && len(st.Data) > 0 &&
		(sm.sim.Design.Decomp == config.DecompHW || sm.sim.Design.Decomp == config.DecompCABA) &&
		inj.BitFlip() {
		injected = true
		sm.stat.FaultsInjected++
		st.Data = inj.Corrupt(st.Data)
	}
	switch sm.sim.Design.Decomp {
	case config.DecompIdeal:
		sm.runCont(proceed)
	case config.DecompHW:
		d, _ := compress.HWLatency(sm.sim.Design.Alg)
		if injected {
			// The dedicated decompressor's output check catches the flip
			// after the decompression latency and refetches the raw line.
			sm.sim.Q.Push(sm.sim.Q.Now()+float64(d), actHWDetect{sm: sm, ln: ln, fill: ctx})
			return
		}
		sm.sim.Q.Push(sm.sim.Q.Now()+float64(d), actCompleteFill{sm: sm, ln: ln, fill: ctx})
	case config.DecompCABA:
		warp := 0
		switch {
		case ctx.kind == fillLoad && ctx.load != nil:
			warp = ctx.load.warp.id
		case ctx.kind == fillRMW && ctx.se != nil:
			warp = ctx.se.warp
		}
		sm.triggerDecompAW(ln, st, warp, injected, proceed)
	default:
		sm.runCont(proceed)
	}
}

// completeFill installs the line and wakes its waiters.
func (sm *SM) completeFill(ln uint64, ctx *fillCtx) {
	sm.touch()
	switch ctx.kind {
	case fillLoad:
		size := sm.sim.Cfg.LineSize
		if sm.sim.Design.L1TagMult > 1 {
			if st := sm.sim.Dom.State(ln); st.IsCompressed() {
				size = st.Size()
			}
		}
		sm.l1.Insert(ln, size, false)
		if sm.tr != nil {
			sm.traceMSHREnd(ln)
		}
		for _, w := range sm.mshr.Complete(ln) {
			if req, okReq := w.(*loadReq); okReq && req != nil {
				sm.loadLineDone(req)
			}
		}
	case fillRMW:
		sm.compressAndWrite(ctx.se)
	case fillAssist:
		sm.l1.Insert(ln, sm.sim.Cfg.LineSize, false)
		if sm.tr != nil {
			sm.traceMSHREnd(ln)
		}
		// A demand load may have merged onto an assist-initiated line
		// (prefetch won the race to the MSHR); its waiters complete like
		// any other fill rather than being dropped.
		for _, w := range sm.mshr.Complete(ln) {
			if req, okReq := w.(*loadReq); okReq && req != nil {
				sm.loadLineDone(req)
			}
		}
		if sm.pf != nil {
			sm.pf.lines--
			sm.pf.noteFill(ln)
		}
	}
}
