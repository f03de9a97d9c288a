package gpu

// Observability glue: the metrics sampler, per-warp stall attribution,
// and trace-span recording for the simulator. Everything here is a pure
// observer — nil-gated at every call site, reading machine state without
// mutating it — so the simulated statistics are bit-identical whether
// the knobs are on or off, and across snapshot/restore.

import (
	"fmt"

	"github.com/caba-sim/caba/internal/core"
	"github.com/caba-sim/caba/internal/obs"
	"github.com/caba-sim/caba/internal/snapshot"
	"github.com/caba-sim/caba/internal/stats"
)

// Trace track-id namespaces within an SM's shard: warp-lifetime spans
// use the warp slot index directly; assist-warp and MSHR spans get
// free-list-allocated tracks in disjoint ranges so per-track begin/end
// pairs never interleave.
const (
	trackAWBase   = 1000
	trackMSHRBase = 2000
)

// classify maps a slot's accumulated hazard flags to Figure 1's stall
// kind. The precedence — Memory over Compute over DataDep over Idle — is
// deliberate and load-bearing: a slot that saw both a memory-blocked and
// a scoreboard-blocked candidate counts as a memory stall, matching the
// paper's taxonomy (the memory system is the resource whose recovery
// would have let the slot issue soonest). issueSlot and quiescent both
// classify through this single function, and the per-warp stall
// attribution charges along the same precedence, so attribution totals
// always reconcile exactly with the IssueSlots counters.
func classify(f *slotFlags) stats.StallKind {
	switch {
	case f.memS:
		return stats.MemoryStall
	case f.compS:
		return stats.ComputeStall
	case f.dep:
		return stats.DataDepStall
	default:
		return stats.IdleCycle
	}
}

// initBlame arms a slotFlags for attribution: blamed-warp fields start
// at -1 (unset) so the first flagged candidate in scheduler visit order
// wins deterministically.
func (f *slotFlags) initBlame() {
	f.blame = true
	f.depW, f.memW, f.compW = -1, -1, -1
	f.barW, f.drainW, f.idleAW = -1, -1, -1
}

// blameFor resolves which (warp, cause) pair an unissued slot of the
// given classification is charged to. For stall kinds it is the first
// candidate that raised the classified flag; for idle slots the
// precedence is barrier > drain > blocked low-priority assist > empty
// SM (charged to the SM row as warp -1).
func blameFor(kind stats.StallKind, f *slotFlags) (int, obs.Cause) {
	switch kind {
	case stats.MemoryStall:
		return f.memW, f.memC
	case stats.ComputeStall:
		return f.compW, f.compC
	case stats.DataDepStall:
		return f.depW, f.depC
	default:
		switch {
		case f.barW >= 0:
			return f.barW, obs.CauseBarrier
		case f.drainW >= 0:
			return f.drainW, obs.CauseDrain
		case f.idleAW >= 0:
			return f.idleAW, obs.CauseAssist
		default:
			return -1, obs.CauseEmpty
		}
	}
}

// chargeSlot charges one unissued issue slot to exactly one (warp,
// cause) pair, derived from the slot's final classification so the
// attribution tables sum exactly to the non-Active IssueSlots counters.
func (sm *SM) chargeSlot(kind stats.StallKind, f *slotFlags) {
	w, c := blameFor(kind, f)
	sm.attr.Charge(w, c, 1)
}

// noteIdleWarp records a valid warp with no current instruction for idle
// blame: parked at a barrier, or drained (done, CTA not yet retired).
func (f *slotFlags) noteIdleWarp(w *warpCtx) {
	if w.exec.AtBarrier {
		if f.barW < 0 {
			f.barW = w.id
		}
	} else if f.drainW < 0 {
		f.drainW = w.id
	}
}

// computeHazard reports whether a structural hazard is a compute stall
// (the SFU and ALU ports); every other one is a memory stall.
func computeHazard(c obs.Cause) bool {
	return c == obs.CauseSFUBusy || c == obs.CauseALUBusy
}

// noteHazard raises the flag warp w's structural hazard c files under
// and, with blame armed, blames w for it if it is the first to raise it.
func (f *slotFlags) noteHazard(w int, c obs.Cause) {
	if computeHazard(c) {
		f.compS = true
		if f.blame && f.compW < 0 {
			f.compW, f.compC = w, c
		}
		return
	}
	f.memS = true
	if f.blame && f.memW < 0 {
		f.memW, f.memC = w, c
	}
}

// noteAssist records a blocked high-priority assist warp for blame. The
// charge lands on the assist's host warp slot as CauseAssist, filed
// under whichever stall flag the assist's hazard raised so it stays
// consistent with the slot's final classification.
func (f *slotFlags) noteAssist(warp int, dep, memS, compS bool) {
	switch {
	case memS && f.memW < 0:
		f.memW, f.memC = warp, obs.CauseAssist
	case compS && f.compW < 0:
		f.compW, f.compC = warp, obs.CauseAssist
	case dep && f.depW < 0:
		f.depW, f.depC = warp, obs.CauseAssist
	}
}

// --- Trace-span recording (all methods assume sm.tr != nil) ---

// traceWarpBegin opens the lifetime span of a warp just placed by
// placeCTA; the track is the warp's slot index.
func (sm *SM) traceWarpBegin(w *warpCtx, ctaID int) {
	sm.tr.Begin(sm.cycle, w.id, fmt.Sprintf("cta %d", ctaID), "warp")
}

// traceWarpEnd closes a warp's lifetime span when its CTA retires.
func (sm *SM) traceWarpEnd(w *warpCtx) {
	sm.tr.End(sm.cycle, w.id)
}

// traceAssistBegin opens an assist warp's spawn→complete span. cat keys
// the trigger kind ("fill-decompress", "writeback-compress",
// "ecc-check") so the timeline separates the high-priority fill path
// from the idle-cycle compression path.
func (sm *SM) traceAssistBegin(e *core.Entry, cat string) {
	tid := sm.trAWNext
	if n := len(sm.trAWFree); n > 0 {
		tid = sm.trAWFree[n-1]
		sm.trAWFree = sm.trAWFree[:n-1]
	} else {
		sm.trAWNext++
		sm.tr.ThreadName(trackAWBase+tid, fmt.Sprintf("assist %d", tid))
	}
	sm.trAW[e] = tid
	sm.tr.Begin(sm.cycle, trackAWBase+tid, e.Routine.Name, cat)
}

// traceAssistEnd closes an assist warp's span at retirement and recycles
// its track.
func (sm *SM) traceAssistEnd(e *core.Entry) {
	tid, ok := sm.trAW[e]
	if !ok {
		return
	}
	delete(sm.trAW, e)
	sm.trAWFree = append(sm.trAWFree, tid)
	sm.tr.End(sm.cycle, trackAWBase+tid)
}

// traceMSHRBegin opens an allocate→fill span for a line that just took a
// primary MSHR entry.
func (sm *SM) traceMSHRBegin(ln uint64) {
	if _, dup := sm.trMSHR[ln]; dup {
		return
	}
	tid := sm.trMSHRNext
	if n := len(sm.trMSHRFree); n > 0 {
		tid = sm.trMSHRFree[n-1]
		sm.trMSHRFree = sm.trMSHRFree[:n-1]
	} else {
		sm.trMSHRNext++
		sm.tr.ThreadName(trackMSHRBase+tid, fmt.Sprintf("mshr %d", tid))
	}
	sm.trMSHR[ln] = tid
	sm.tr.Begin(sm.cycle, trackMSHRBase+tid, "miss", "mshr")
}

// traceMSHREnd closes a line's allocate→fill span when the fill installs
// it.
func (sm *SM) traceMSHREnd(ln uint64) {
	tid, ok := sm.trMSHR[ln]
	if !ok {
		return
	}
	delete(sm.trMSHR, ln)
	sm.trMSHRFree = append(sm.trMSHRFree, tid)
	sm.tr.End(sm.cycle, trackMSHRBase+tid)
}

// assistTraceCat derives the trace category for an AWT entry from its
// routine — used when re-opening spans after a snapshot restore, where
// the original trigger site is gone.
func assistTraceCat(rt *core.Routine) string {
	switch {
	case rt.ID == core.RtECCCheck:
		return "ecc-check"
	case rt.ID == core.RtPrefetch:
		return "prefetch"
	case rt.ID == core.RtMemoProbe:
		return "memo-probe"
	case rt.ID == core.RtMemoSave:
		return "memo-update"
	case rt.Priority == core.PriHigh:
		return "fill-decompress"
	default:
		return "writeback-compress"
	}
}

// --- Metrics sampler ---

// obsTotals is a cumulative snapshot of the sim.S counters the sampler
// windows over.
type obsTotals struct {
	instrs   uint64
	issue    [stats.NumStallKinds]uint64
	l1h, l1m uint64
	l2h, l2m uint64
	dramBusy uint64
}

// sampler drives the metrics time-series: it closes a window every
// `every` cycles (after every SM has ticked the boundary cycle) and
// appends one Sample of windowed rates and instantaneous gauges. prev
// carries the previous boundary's totals; next is the next boundary
// cycle. All fields serialize into snapshots so a resumed run emits the
// identical series.
type sampler struct {
	every     uint64
	next      uint64
	prevCycle uint64
	prev      obsTotals
	series    obs.Series
}

// gather reads the current cumulative counters.
func (sim *Simulator) gather() obsTotals {
	return obsTotals{
		instrs:   sim.S.ThreadInstrs,
		issue:    sim.S.IssueSlots,
		l1h:      sim.S.L1Hits,
		l1m:      sim.S.L1Misses,
		l2h:      sim.S.L2Hits,
		l2m:      sim.S.L2Misses,
		dramBusy: sim.S.DRAMBusyCycles,
	}
}

// sample closes the window ending at cycle boundary t and appends the
// row.
func (sim *Simulator) sample(t uint64) {
	smp := sim.smp
	cur := sim.gather()
	dc := t - smp.prevCycle
	row := obs.Sample{Cycle: t}
	if dc > 0 {
		row.IPC = float64(cur.instrs-smp.prev.instrs) / float64(dc)
		slots := float64(dc) * float64(sim.Cfg.NumSchedulers) * float64(len(sim.sms))
		row.IssueActive = float64(cur.issue[stats.Active]-smp.prev.issue[stats.Active]) / slots
		row.IssueComp = float64(cur.issue[stats.ComputeStall]-smp.prev.issue[stats.ComputeStall]) / slots
		row.IssueMem = float64(cur.issue[stats.MemoryStall]-smp.prev.issue[stats.MemoryStall]) / slots
		row.IssueDep = float64(cur.issue[stats.DataDepStall]-smp.prev.issue[stats.DataDepStall]) / slots
		row.IssueIdle = float64(cur.issue[stats.IdleCycle]-smp.prev.issue[stats.IdleCycle]) / slots
		if h, m := cur.l1h-smp.prev.l1h, cur.l1m-smp.prev.l1m; h+m > 0 {
			row.L1HitRate = float64(h) / float64(h+m)
		}
		if h, m := cur.l2h-smp.prev.l2h, cur.l2m-smp.prev.l2m; h+m > 0 {
			row.L2HitRate = float64(h) / float64(h+m)
		}
		// Window data-bus capacity in burst slots: elapsed core cycles ×
		// clock ratio × channels (the same identity FinishStats uses for
		// the whole run).
		cap := float64(dc) * sim.Cfg.MemCyclesPerCoreCycle() * float64(sim.Cfg.NumChannels)
		if cap > 0 {
			row.DRAMBusy = float64(cur.dramBusy-smp.prev.dramBusy) / cap
		}
	}
	var mshrOut, awOut int
	for _, sm := range sim.sms {
		mshrOut += sm.mshr.Outstanding()
		awOut += len(sm.awc.Entries())
	}
	if d := len(sim.sms) * sim.Cfg.L1MSHRs; d > 0 {
		row.MSHROcc = float64(mshrOut) / float64(d)
	}
	if d := len(sim.sms) * sim.awtEntries; d > 0 {
		row.AWOcc = float64(awOut) / float64(d)
	}
	if sim.S.Ratio.Lines > 0 {
		row.CompRatio = sim.S.Ratio.Value()
	}
	smp.series.Append(row)
	smp.prev, smp.prevCycle = cur, t
	smp.next = t + smp.every
}

// snap codes the sampler state (cadence cursor, previous-boundary
// totals, recorded rows) in a checkpoint.
func (smp *sampler) snap(c *snapshot.Codec) {
	c.U64(&smp.next)
	c.U64(&smp.prevCycle)
	c.U64(&smp.prev.instrs)
	c.U64s(smp.prev.issue[:])
	c.U64(&smp.prev.l1h)
	c.U64(&smp.prev.l1m)
	c.U64(&smp.prev.l2h)
	c.U64(&smp.prev.l2m)
	c.U64(&smp.prev.dramBusy)
	smp.series.Snap(c)
}

// --- Wiring and accessors ---

// wireObs builds the enabled observability sinks for a freshly
// constructed simulator: the sampler, the per-SM attribution tables, and
// the trace with its per-SM shards and track labels.
func (sim *Simulator) wireObs() {
	cfg := sim.Cfg
	if cfg.SampleEvery > 0 {
		sim.smp = &sampler{every: cfg.SampleEvery, next: cfg.SampleEvery}
	}
	if cfg.AttributeStalls {
		for _, sm := range sim.sms {
			sm.attr = obs.NewAttr(cfg.MaxWarpsPerSM)
		}
	}
	if cfg.TraceFile != "" {
		sim.tr = obs.NewTrace(cfg.NumSMs)
		for i, sm := range sim.sms {
			sm.tr = sim.tr.SM(i)
			sm.trAW = make(map[*core.Entry]int)
			sm.trMSHR = make(map[uint64]int)
			for w := 0; w < cfg.MaxWarpsPerSM; w++ {
				sm.tr.ThreadName(w, fmt.Sprintf("warp %d", w))
			}
		}
		sim.Sys.AttachTrace(sim.tr.Mem())
	}
}

// reopenTraceSpans re-opens begin events for every entity that is live
// in a just-restored snapshot — valid warps, AWT entries, outstanding
// MSHR lines — so a resumed run's trace closes cleanly and passes schema
// validation. The resumed trace covers restore→end; DRAM spans are
// self-contained 'X' events and need nothing.
func (sim *Simulator) reopenTraceSpans() {
	if sim.tr == nil {
		return
	}
	for _, sm := range sim.sms {
		for _, w := range sm.warps {
			if sm.resident(w) {
				sm.traceWarpBegin(w, w.cta.id)
			}
		}
		for _, e := range sm.awc.Entries() {
			sm.traceAssistBegin(e, assistTraceCat(e.Routine))
		}
		for _, ln := range sm.mshr.Lines() {
			sm.traceMSHRBegin(ln)
		}
	}
}

// Series returns the sampled metrics time-series, or nil when
// Config.SampleEvery is zero. Valid after Run.
func (sim *Simulator) Series() *obs.Series {
	if sim.smp == nil {
		return nil
	}
	return &sim.smp.series
}

// StallAttribution returns the per-warp stall attribution report, or nil
// when Config.AttributeStalls is false. Valid after Run; the per-SM
// tables are returned in SM-index order.
func (sim *Simulator) StallAttribution() *obs.Attribution {
	if !sim.Cfg.AttributeStalls {
		return nil
	}
	at := &obs.Attribution{WarpSlots: sim.Cfg.MaxWarpsPerSM}
	for _, sm := range sim.sms {
		at.PerSM = append(at.PerSM, sm.attr)
	}
	return at
}

// Trace returns the run's trace recorder, or nil when Config.TraceFile
// is empty. The caller flushes it (typically after CloseOpen at the
// final cycle).
func (sim *Simulator) Trace() *obs.Trace { return sim.tr }
