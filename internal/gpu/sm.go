package gpu

import (
	"bytes"
	"fmt"
	"math/bits"

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

	// s is the run's counters (sim.S), which every SM increments.
	s *stats.Sim

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
	// pure strategy hint, derived from other state: not serialized,
	// re-armed conservatively on load.
	retryArmed bool
	// replayQ holds loads whose coalesced lines overflowed the MSHR.
	replayQ []*loadReq

	// Pipeline ports, reset each cycle.
	aluPorts int
	lsuPorts int
	sfuFree  uint64 // SFU initiation interval
	lsuFree  uint64 // LSU busy from multi-line coalesced accesses

	// greedy is the last warp that issued: GTO tries it first.
	greedy *warpCtx
	// scan holds the issue stage's per-slot verdict masks (warp.go).
	scan scanMasks
	// head..tail is the GTO order, a doubly linked list over warp slots
	// (next/prev hold slot indices, -1 ends the list) holding the valid
	// warps stable-sorted by (lastIssueCycle, slot). The links live here
	// rather than in the warps, so walking past skipped warps reads only
	// this array. Warps that issue are recorded in issuedBuf and re-placed
	// at the next full tick (settleOrder); orderDirty forces a full
	// rebuild after warp validity changes (CTA placement and retirement,
	// LoadState). Derived state, never serialized.
	head, tail  int8
	next, prev  [64]int8
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
	// of re-scanning the warp list. Every event entry into the SM (a
	// fill, a delayed hardware decompression, compression or fault
	// check) invalidates it via touch(). This is what makes memory-stall
	// and drain cycles cheap: the clock ticks every cycle, but a stalled
	// SM costs a few compares per tick.
	qValid   bool
	qKind    stats.StallKind
	qHorizon uint64
	// qTry gates cache establishment: only a tick that issued nothing
	// makes the next tick a quiescence candidate, so busy ticks never pay
	// for the extra scan.
	qTry bool

	// fatal is the SM's first unrecoverable error (an internal invariant
	// violation that used to panic). The run loop scans it every cycle
	// and surfaces it as a structured error from Run.
	fatal error

	// fr is this SM's flight-recorder ring (nil when the recorder is
	// off). Only this SM writes it.
	fr *flightRing

	// attr is this SM's per-warp stall attribution table (nil when
	// Config.AttributeStalls is off). Like fr, it is written only by its
	// owning SM.
	attr *obs.Attr
	// qBlameW/qBlameC cache the attribution target alongside the
	// quiescence verdict (qKind): the tick fast path charges the cached
	// pair, so a replayed tick attributes exactly like the full tick it
	// replaces.
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

// touch invalidates the quiescence cache. Every entry into the SM from
// outside its own tick calls it first: onFill and the SM's queued
// actions (actions.go). Code that runs inside tick needs none, since a
// full tick has already dropped the verdict.
func (sm *SM) touch() {
	sm.qValid = false
}

// fail records the SM's first fatal error; later errors are dropped so
// the surfaced error is the root cause.
func (sm *SM) fail(err error) {
	if sm.fatal == nil {
		sm.fatal = err
	}
	sm.touch()
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
		return core.ResetAssistExec(ex, rt)
	}
	return core.NewAssistExec(rt)
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
		s:     sim.S,
		warps: make([]*warpCtx, cfg.MaxWarpsPerSM),
		l1:    mem.NewCache(cfg.L1Size, cfg.L1Assoc, compress.LineSize, 1, sim.Design.L1TagMult),
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
	sm.head, sm.tail = -1, -1
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
			sm.scan.dep &^= rec.w.bit()
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
// (exclusive); ok is false when the ring is empty. Used by quiescent()
// to bound the cached verdict.
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
func (sm *SM) placeCTA(ctaID int) {
	sm.orderDirty = true
	k := sm.sim.Kernel
	warpsNeeded := k.WarpsPerCTA()
	cta := &ctaCtx{
		id:     ctaID,
		shared: make([]byte, k.SharedMem),
	}
	placed := 0
	for _, w := range sm.warps {
		if placed == warpsNeeded {
			break
		}
		if sm.resident(w) {
			continue
		}
		threadsLeft := k.CTAThreads - placed*core.WarpSize
		mask := core.FullMask
		if threadsLeft < core.WarpSize {
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
		ex.Mem = sm.sim.Mem
		ex.Shared = cta.shared
		for lane := 0; lane < core.WarpSize; lane++ {
			tid := placed*core.WarpSize + lane
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
		sm.clearScan(w)
		sm.scan.valid |= w.bit()
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
	return len(sm.warps) - bits.OnesCount64(sm.scan.valid)
}

// clearScan drops every scan verdict for w's slot, valid included, and
// its cached memo key: placement and retirement change what the slot
// holds.
func (sm *SM) clearScan(w *warpCtx) {
	b := w.bit()
	sm.scan.valid &^= b
	sm.scan.dep &^= b
	sm.scan.idle &^= b
	sm.scan.sfu &^= b
	w.memoKeyOK = false
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
		sm.clearScan(w)
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
	// NoteIssueSlot calls exactly. perCycle (tests only) always runs the
	// full tick, as the reference the cache is checked against.
	if !sm.sim.perCycle {
		if !sm.qValid && sm.qTry {
			if kind, horizon, ok := sm.quiescent(cycle); ok {
				sm.qValid, sm.qKind, sm.qHorizon = true, kind, horizon
			}
		}
		if sm.qValid {
			if cycle < sm.qHorizon {
				sm.cycle = cycle
				sched := sm.sim.Cfg.NumSchedulers
				sm.s.IssueSlots[sm.qKind] += uint64(sched)
				if sm.attr != nil {
					sm.attr.Charge(sm.qBlameW, sm.qBlameC, uint64(sched))
				}
				sm.awc.NoteIdleSlots(sched)
				return
			}
			sm.qValid = false
		}
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
	sm.settleOrder()

	idle := true
	for s := 0; s < sm.sim.Cfg.NumSchedulers; s++ {
		kind := sm.issueSlot()
		if kind == stats.Active {
			idle = false
		}
		sm.awc.NoteIssueSlot(kind == stats.Active)
		sm.s.IssueSlots[kind]++
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
// aging); never when the SM is waiting purely on memory-system events.
// tick() may then replay `kind` for every cycle before horizon until
// touch() invalidates the verdict, with results bit-identical to running
// the full tick.
func (sm *SM) quiescent(cycle uint64) (kind stats.StallKind, horizon uint64, ok bool) {
	horizon = never

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
	// Warps: replicate issueSlot's classification flags without issuing,
	// in issueSlot's visit order (the greedy warp, then the GTO order), so
	// that attribution blames the same first warp. settleOrder first
	// applies the moves the full tick would apply; nothing the order
	// depends on changes before that tick.
	var f slotFlags
	if sm.attr != nil {
		f.initBlame()
	}
	sm.settleOrder()
	g := sm.greedy
	if g != nil && sm.resident(g) && !sm.quietWarp(g, cycle, &f, &horizon) {
		return 0, 0, false
	}
	for i := sm.head; i >= 0; i = sm.next[i] {
		if w := sm.warps[i]; w != g && !sm.quietWarp(w, cycle, &f, &horizon) {
			return 0, 0, false
		}
	}
	kind = classify(&f)
	if f.blame {
		sm.qBlameW, sm.qBlameC = blameFor(kind, &f)
	}
	return kind, horizon, true
}

// quietWarp is quiescent's probe of one valid warp: it raises the flags
// (and blame) tryWarp would raise at tick start, lowers horizon to the
// cycle the warp's hazard clears by itself, and reports false when the
// warp would issue. It reads state only.
func (sm *SM) quietWarp(w *warpCtx, cycle uint64, f *slotFlags, horizon *uint64) bool {
	in := w.exec.CurrentSop()
	if in == nil {
		// Done or at barrier: contributes to idle.
		if f.blame {
			f.noteIdleWarp(w)
		}
		return true
	}
	if w.sb.ConflictsSop(in) {
		f.dep = true
		if f.blame && f.depW < 0 {
			f.depW, f.depC = w.id, sm.depCause(w)
		}
		return true
	}
	// The tick about to run starts with every per-tick port free.
	c, clears := sm.hazard(in, w, cycle, true)
	if c == noHazard || c == obs.CauseSFUBusy && sm.memo != nil {
		// With memoization on, a busy SFU port is not a stall: the live
		// tick may issue this warp through the probe path.
		return false
	}
	f.noteHazard(w.id, c)
	*horizon = min(*horizon, clears)
	return true
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
	// Only a successful issue changes the AWT, and every one returns at
	// once, so this entry list and the staged masks stay valid for the
	// whole slot.
	ents := sm.awc.Entries()
	for m := sm.awc.StagedMask(core.PriHigh); m != 0; m &= m - 1 {
		e := ents[bits.TrailingZeros64(m)]
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

	// GTO: greedy on the last warp, then oldest (least-recently issued).
	todo := sm.scan.valid
	if g := sm.greedy; g != nil {
		if todo&g.bit() != 0 && sm.tryWarp(g, &f) {
			return stats.Active
		}
		todo &^= g.bit()
	}
	// Without blame the slot keeps only which flags were raised, not by
	// whom, so warps whose failure the masks prove are skipped. With blame,
	// every warp is visited, because attribution charges the first warp
	// in visit order to raise the slot's flag.
	if !f.blame {
		todo = sm.skipKnown(todo, &f)
	}
	// The list holds exactly the valid warps, so it cannot run out before
	// todo does.
	for i := sm.head; todo != 0; i = sm.next[i] {
		b := uint64(1) << uint(i)
		if todo&b == 0 {
			continue
		}
		todo &^= b
		if w := sm.warps[i]; sm.tryWarp(w, &f) {
			sm.greedy = w
			return stats.Active
		}
	}

	// Idle slot: low-priority assist warps (Section 3.2.3 — scheduled
	// only during idle cycles).
	for m := sm.awc.StagedMask(core.PriLow); m != 0; m &= m - 1 {
		e := ents[bits.TrailingZeros64(m)]
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

// skipKnown drops from todo the warps whose probe would fail in a way
// the scan masks already prove, and raises the flags those probes would
// raise: dep-stalled warps raise dep, idle warps nothing, and warps
// whose only blocker is a busy SFU port compS. With memoization on, an
// SFU-blocked warp may still issue through a result-cache probe
// (tryMemoIssue), so it stays in todo.
func (sm *SM) skipKnown(todo uint64, f *slotFlags) uint64 {
	if todo&sm.scan.dep != 0 {
		f.dep = true
	}
	skip := sm.scan.dep | sm.scan.idle
	if sm.cycle < sm.sfuFree && sm.memo == nil {
		if todo&sm.scan.sfu != 0 {
			f.compS = true
		}
		skip |= sm.scan.sfu
	}
	return todo &^ skip
}

// tryWarp attempts to issue for one warp: its high-priority assist warp
// first (which takes precedence over the parent, Section 3.2.3), then its
// own next instruction. It records the verdicts it proves in sm.scan.
// w must be resident.
func (sm *SM) tryWarp(w *warpCtx, f *slotFlags) bool {
	// Replay verdicts already proven: a dependence failure (and its blame
	// pair) holds until one of this warp's scoreboard bits clears; a
	// done/at-barrier verdict holds until a barrier release or a fresh
	// CTA placement.
	b := w.bit()
	if sm.scan.dep&b != 0 {
		f.dep = true
		if f.blame && f.depW < 0 {
			f.depW, f.depC = w.id, sm.depCause(w)
		}
		return false
	}
	if sm.scan.idle&b != 0 {
		if f.blame {
			f.noteIdleWarp(w)
		}
		return false
	}
	in := w.exec.CurrentSop()
	if in == nil {
		// Done or at barrier: contributes to idle.
		sm.scan.idle |= b
		if f.blame {
			f.noteIdleWarp(w)
		}
		return false
	}
	if w.sb.ConflictsSop(in) {
		sm.scan.dep |= b
		f.dep = true
		if f.blame && f.depW < 0 {
			f.depW, f.depC = w.id, sm.depCause(w)
		}
		return false
	}
	if in.Class == isa.ClassSFU {
		sm.scan.sfu |= b
	}
	if c, _ := sm.hazard(in, w, sm.cycle, false); c != noHazard {
		// A saturated SFU port is exactly where the memoization use case
		// adds throughput: a result-cache hit issues through a probe
		// assist instead of waiting for the port.
		if c == obs.CauseSFUBusy && sm.memo != nil && sm.tryMemoIssue(w, in) {
			return true
		}
		f.noteHazard(w.id, c)
		return false
	}
	sm.issueRegular(w, in)
	return true
}

// stepped records that w issued: the GTO order re-places it at the next
// settle, and the verdicts that read its current instruction or its
// registers (the sfu bit and the memo key) are dropped.
func (sm *SM) stepped(w *warpCtx) {
	w.lastIssueCycle = sm.cycle
	sm.issuedBuf = append(sm.issuedBuf, w)
	b := w.bit()
	sm.scan.sfu &^= b
	w.memoKeyOK = false
}

// settleOrder brings the GTO order up to date before the issue stage
// reads it: a full rebuild after validity changes (orderDirty),
// otherwise each warp that issued since the last settle is re-placed
// from the back. That reproduces the stable sort exactly, because the
// issued warps carry the maximal lastIssueCycle, so insertSorted walks
// back only over warps with that cycle and a larger slot. While the
// cycle is 0 that tie group also holds every warp that has never issued:
// a warp issuing at cycle 0 stays in front of the never-issued warps in
// larger slots.
func (sm *SM) settleOrder() {
	if sm.orderDirty {
		sm.orderDirty = false
		sm.issuedBuf = sm.issuedBuf[:0]
		sm.head, sm.tail = -1, -1
		for m := sm.scan.valid; m != 0; m &= m - 1 {
			sm.insertSorted(sm.warps[bits.TrailingZeros64(m)])
		}
		return
	}
	for _, w := range sm.issuedBuf {
		sm.unlink(w.id)
		sm.insertSorted(w)
	}
	sm.issuedBuf = sm.issuedBuf[:0]
}

// gtoBefore reports whether a precedes b in the GTO order: least
// recently issued first, ties in slot order.
func gtoBefore(a, b *warpCtx) bool {
	return a.lastIssueCycle < b.lastIssueCycle ||
		a.lastIssueCycle == b.lastIssueCycle && a.id < b.id
}

// insertSorted links the unlinked warp w behind the last listed warp
// that precedes it, walking back from the tail.
func (sm *SM) insertSorted(w *warpCtx) {
	i := int8(w.id)
	p := sm.tail
	for p >= 0 && gtoBefore(w, sm.warps[p]) {
		p = sm.prev[p]
	}
	sm.prev[i] = p
	if p < 0 {
		sm.next[i], sm.head = sm.head, i
	} else {
		sm.next[i], sm.next[p] = sm.next[p], i
	}
	if n := sm.next[i]; n < 0 {
		sm.tail = i
	} else {
		sm.prev[n] = i
	}
}

// unlink removes slot id from the GTO order.
func (sm *SM) unlink(id int) {
	p, n := sm.prev[id], sm.next[id]
	if p < 0 {
		sm.head = n
	} else {
		sm.next[p] = n
	}
	if n < 0 {
		sm.tail = p
	} else {
		sm.prev[n] = p
	}
}

// never is the cycle that never comes: the horizon of a wait that only
// an event ends.
const never = ^uint64(0)

// noHazard is hazard's cause when the op can issue.
const noHazard = obs.NumCauses

// hazard is the issue stage's one structural-hazard check: the cause that
// keeps in from issuing at cycle (noHazard when it can issue), and the
// cycle that hazard clears by itself: lsuFree or sfuFree, the next tick
// for a port spent this tick, never for a full store buffer or a
// replaying load, which only events clear. The order is fixed: LSU busy,
// a full store buffer with nothing evictable, the warp's own replaying
// load (one load at a time may sit in the replay queue per warp; w is nil
// for an assist warp, which has none), SFU busy, no ALU port left.
// fresh judges the tick about to run, whose per-tick ports are all free
// (quiescent); otherwise the ports spent earlier in this tick count.
func (sm *SM) hazard(in *isa.Superop, w *warpCtx, cycle uint64, fresh bool) (obs.Cause, uint64) {
	switch in.Class {
	case isa.ClassMem:
		if cycle < sm.lsuFree {
			return obs.CauseLSUBusy, sm.lsuFree
		}
		if !fresh && sm.lsuPorts == 0 {
			return obs.CauseLSUBusy, cycle + 1
		}
		if in.GlobalMem && in.StoreOp &&
			len(sm.storeBuf) >= storeBufCap && !sm.canEvictStore() {
			return obs.CauseStoreBufFull, never
		}
		if in.GlobalMem && w != nil && w.replay != nil {
			return sm.mshrCause(), never
		}
	case isa.ClassSFU:
		if cycle < sm.sfuFree {
			return obs.CauseSFUBusy, sm.sfuFree
		}
	case isa.ClassALU:
		if !fresh && sm.aluPorts == 0 {
			return obs.CauseALUBusy, cycle + 1
		}
	}
	return noHazard, 0
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
		memoKey = sm.memoKey(w, in)
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
	sm.stepped(w)
	sm.s.WarpInstrs++
	sm.s.ThreadInstrs += uint64(popcount32(info.ExecMask))
	sm.countClass(in)

	switch in.Class {
	case isa.ClassALU:
		sm.aluPorts--
		sm.finishAfter(w, in, uint64(sm.sim.Cfg.ALULatency))
	case isa.ClassSFU:
		sm.sfuFree = sm.cycle + 4 // initiation interval
		sm.finishAfter(w, in, uint64(sm.sim.Cfg.SFULatency))
		if memoMiss {
			sm.s.MemoMisses++
			if sm.tryMemoSave(w, memoKey) {
				sm.memo.insert(memoKey)
				sm.s.MemoUpdates++
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
				sm.scan.idle &^= ww.bit()
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
				sm.scan.idle &^= ww.bit()
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
	lines := coalesceInto(&sm.lineBuf, &info.Addrs, info.ExecMask)
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
			sm.s.L1Misses++
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
			sm.scan.dep &^= w.bit()
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
	sm.s.L1Hits++
	if sm.pf != nil && sm.pf.noteHit(ln) {
		sm.s.PrefetchUseful++
	}
	lat := uint64(sm.sim.Cfg.L1Latency)
	// Figure 13: L1-resident compressed lines pay decompression on every
	// hit.
	if sm.sim.Design.L1TagMult > 1 {
		if st := sm.sim.Dom.State(ln); st.IsCompressed() && sm.l1.LineSizeOf(ln) < compress.LineSize {
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
	req.linesPending--
	if req.linesPending > 0 {
		return
	}
	w := req.warp
	w.sb.ClearSop(req.sop)
	sm.scan.dep &^= w.bit()
	w.inFlight--
	w.pendingLoads--
	sm.s.LoadCount++
	sm.s.LoadLatTotal += sm.cycle - req.issued
}

// coalesceInto merges per-lane addresses into unique cache lines using
// the caller's scratch buffer.
func coalesceInto(buf *[]uint64, addrs *[core.WarpSize]uint64, mask uint32) []uint64 {
	lines := (*buf)[:0]
	for lane := 0; lane < core.WarpSize; lane++ {
		if mask&(1<<lane) == 0 {
			continue
		}
		la := mem.LineAddr(addrs[lane])
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
		if mem.LineAddr(info.Addrs[lane]) != ln {
			continue
		}
		word := (info.Addrs[lane] % compress.LineSize) / 4
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
		sm.s.StoreBufferFlushes++
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
		sm.sim.Q.Push(float64(sm.cycle+uint64(lat)), smEvent{sm: sm, kind: akHWCompress, se: se})
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
	if !sm.launchAssist(rt, se.warp, ex, se, "writeback-compress") {
		return false
	}
	se.state = sbCompress
	return true
}

// launchAssist triggers routine rt for parent warp slot host with its
// prepared exec and the User payload that selects its completion
// (completionOf). A launched assist warp is counted and opens its trace
// span; a refused one returns its exec to the pool.
func (sm *SM) launchAssist(rt *core.Routine, host int, ex *core.Exec, user any, span string) bool {
	e := sm.awc.Trigger(rt, host, ex, user)
	if e == nil {
		sm.releaseAssistExec(ex)
		return false
	}
	sm.s.AssistWarps++
	if sm.tr != nil {
		sm.traceAssistBegin(e, span)
	}
	return true
}

// completion names what a retired assist warp's result feeds. It is a
// function of the entry's User payload and routine (completionOf), so an
// AWT entry is plain data: finishAssist dispatches on it, and LoadState
// rejects a restored entry whose pair names none.
type completion uint8

const (
	noCompletion     completion = iota
	completeNothing             // prefetch, result-cache install: the routine's own work is its effect
	completeCompress            // *storeEntry: one compression-chain step
	completeDecomp              // *decompCtx: decompression with fault injection active
	completeECC                 // *decompCtx: the ECC check over a decompressed image
	completePlain               // *decompPlain: decompression without injection
	completeMemo                // *memoCtx: a result-cache probe
)

// completionOf maps an assist warp's User payload and routine to its
// completion.
func completionOf(user any, id core.RoutineID) completion {
	switch user.(type) {
	case *storeEntry:
		return completeCompress
	case *decompCtx:
		if id == core.RtECCCheck {
			return completeECC
		}
		return completeDecomp
	case *decompPlain:
		return completePlain
	case *memoCtx:
		return completeMemo
	case nil:
		if id == core.RtPrefetch || id == core.RtMemoSave {
			return completeNothing
		}
	}
	return noCompletion
}

// finishAssist runs a retired assist warp's completion.
func (sm *SM) finishAssist(e *core.Entry) {
	switch completionOf(e.User, e.Routine.ID) {
	case completeCompress:
		sm.finishCompressionStep(e.User.(*storeEntry), e)
	case completeDecomp:
		sm.finishDecompression(e.User.(*decompCtx), e.Exec)
	case completeECC:
		sm.finishECCCheck(e.User.(*decompCtx), e.Exec)
	case completePlain:
		// Injection disabled: verify against the backing store and
		// complete — exactly the pre-fault-framework flow.
		u := e.User.(*decompPlain)
		sm.verifyDecompression(u.ln, e.Exec)
		sm.s.LinesDecompressed++
		sm.runCont(u.done)
	case completeMemo:
		sm.finishMemoProbe(e.User.(*memoCtx))
	}
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
			sm.s.LinesCompressed++
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
	sm.s.LinesCompressed++
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
	return sm.launchAssist(rt, host, ex, user, "fill-decompress")
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
		sm.sim.decompMismatches++
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
			sm.s.FaultsDetected++
			sm.refetchRaw(dc.ln, dc.done)
			return
		}
		sm.fail(fmt.Errorf("gpu: decompression routine failed: %w", ex.Err))
		return
	}
	sm.s.LinesDecompressed++
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
	return sm.launchAssist(rt, host, ex, dc, "ecc-check")
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
		sm.s.FaultsDetected++
		sm.refetchRaw(dc.ln, dc.done)
		return
	}
	sm.sim.decompMismatches++
	sm.runCont(dc.done)
}

// refetchRaw fetches the uncompressed copy of a detected-corrupt line
// instead of propagating garbage to the waiters; after runs when the
// clean copy arrives (counted then as the recovery).
func (sm *SM) refetchRaw(ln uint64, after cont) {
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
	if c, _ := sm.hazard(in, nil, sm.cycle, false); c != noHazard {
		compS := computeHazard(c)
		return false, false, !compS, compS
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
	sm.awc.Consumed(e)
	sm.s.AssistInstrs++
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
			for _, ln := range coalesceInto(&sm.awLineBuf, &info.Addrs, info.ExecMask) {
				if sm.l1.Lookup(ln, false) {
					sm.s.L1Hits++
					continue
				}
				sm.s.L1Misses++
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
		sm.s.ALUInstrs++
	case isa.ClassSFU:
		sm.s.SFUInstrs++
	case isa.ClassMem:
		sm.s.MemInstrs++
	case isa.ClassCtrl:
		sm.s.CtrlInstrs++
	}
}

// checkAssistDone retires a finished assist warp, runs its completion
// and recycles its staging buffers (the completion is the last reader of
// the exec's staging output).
func (sm *SM) checkAssistDone(e *core.Entry) {
	if e.Done() {
		if sm.tr != nil {
			sm.traceAssistEnd(e)
		}
		sm.awc.Retire(e)
		sm.finishAssist(e)
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
		sm.s.FaultsRecovered++
		sm.runCont(ctx.after)
		return
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
		sm.s.FaultsInjected++
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
			sm.sim.Q.Push(sm.sim.Q.Now()+float64(d), smEvent{sm: sm, kind: akHWDetect, ln: ln, fill: ctx})
			return
		}
		sm.sim.Q.Push(sm.sim.Q.Now()+float64(d), smEvent{sm: sm, kind: akCompleteFill, ln: ln, fill: ctx})
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
	switch ctx.kind {
	case fillLoad:
		size := compress.LineSize
		if sm.sim.Design.L1TagMult > 1 {
			if st := sm.sim.Dom.State(ln); st.IsCompressed() {
				size = st.Size()
			}
		}
		sm.s.L1Evictions += uint64(len(sm.l1.Insert(ln, size, false)))
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
		sm.s.L1Evictions += uint64(len(sm.l1.Insert(ln, compress.LineSize, false)))
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
