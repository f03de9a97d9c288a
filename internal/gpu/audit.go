package gpu

import (
	"fmt"
	"sort"

	"github.com/caba-sim/caba/internal/audit"
	"github.com/caba-sim/caba/internal/core"
	"github.com/caba-sim/caba/internal/isa"
)

// Runtime invariant auditor and crash flight recorder.
//
// The auditor (Config.AuditEvery) walks the machine's bookkeeping at
// cycle boundaries — the Figure 1 issue-slot identity, writeback-ring
// conservation, scoreboard/in-flight consistency, SIMT stack bounds, MSHR
// waiter balance, store-buffer bounds, the trigger retry gate, the issue
// scan's verdicts — and fails fast with an *audit.Violation naming the
// invariant, cycle and SM, instead of letting corrupted state surface
// thousands of cycles later as a wedge or silently wrong statistics.
//
// The flight recorder (Config.FlightRecorderDepth) keeps a bounded ring
// of recent notable events per SM plus one simulator-level ring; wedges
// and violations attach the merged trail.

// flightRing is one bounded event ring. A nil ring records nothing, so
// the zero-depth configuration costs one nil check per hook.
type flightRing struct {
	recs []audit.Record
	pos  int
	n    int
}

func newFlightRing(depth int) *flightRing {
	if depth <= 0 {
		return nil
	}
	return &flightRing{recs: make([]audit.Record, depth)}
}

func (fr *flightRing) add(rec audit.Record) {
	fr.recs[fr.pos] = rec
	fr.pos = (fr.pos + 1) % len(fr.recs)
	if fr.n < len(fr.recs) {
		fr.n++
	}
}

func (fr *flightRing) dump() []audit.Record {
	if fr == nil {
		return nil
	}
	out := make([]audit.Record, 0, fr.n)
	start := fr.pos - fr.n
	if start < 0 {
		start += len(fr.recs)
	}
	for i := 0; i < fr.n; i++ {
		out = append(out, fr.recs[(start+i)%len(fr.recs)])
	}
	return out
}

// record adds an SM-level event to the SM's own ring.
func (sm *SM) record(event string, ln uint64) {
	if sm.fr == nil {
		return
	}
	sm.fr.add(audit.Record{Cycle: sm.cycle, SM: sm.id, Event: event, Line: ln})
}

// record adds a simulator-level event.
func (sim *Simulator) record(event string, ln uint64) {
	if sim.frSim == nil {
		return
	}
	sim.frSim.add(audit.Record{Cycle: sim.cycle, SM: -1, Event: event, Line: ln})
}

// FlightRecord returns the merged recent-event trail across all rings in
// chronological order, or nil when the recorder is disabled. Call it only
// between cycles (no SM tick in flight).
func (sim *Simulator) FlightRecord() []audit.Record {
	var out []audit.Record
	out = append(out, sim.frSim.dump()...)
	for _, sm := range sim.sms {
		out = append(out, sm.fr.dump()...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Cycle != out[j].Cycle {
			return out[i].Cycle < out[j].Cycle
		}
		return out[i].SM < out[j].SM
	})
	return out
}

// violation builds a structured invariant failure with the flight trail
// attached.
func (sim *Simulator) violation(inv string, smID int, format string, args ...any) error {
	return &audit.Violation{
		Invariant: inv,
		Cycle:     sim.cycle,
		SM:        smID,
		Detail:    fmt.Sprintf(format, args...),
		Records:   sim.FlightRecord(),
	}
}

// Audit checks the simulator's internal invariants at a cycle boundary
// and returns an *audit.Violation describing the first failure. Run
// schedules it every Config.AuditEvery cycles; tests and postmortems may
// call it directly between Run invocations. It never mutates state.
func (sim *Simulator) Audit() error {
	if err := sim.Sys.Audit(); err != nil {
		return sim.violation("mem-mshr", -1, "%v", err)
	}
	// Figure 1's identity: each elapsed cycle files every scheduler slot
	// of every SM under exactly one outcome.
	var slots uint64
	for _, n := range sim.S.IssueSlots {
		slots += n
	}
	if want := sim.cycle * uint64(sim.Cfg.NumSchedulers) * uint64(len(sim.sms)); slots != want {
		return sim.violation("issue-slots", -1,
			"%d issue slots counted, want cycle × schedulers × SMs = %d", slots, want)
	}
	progLen := len(sim.Kernel.Prog.Code)
	for _, sm := range sim.sms {
		// Writeback-ring conservation: the pending counter that gates
		// drain detection must equal the recorded writebacks.
		n := 0
		for i := range sm.wbRing {
			n += len(sm.wbRing[i])
		}
		if n != sm.wbPending {
			return sim.violation("wb-ring-conservation", sm.id,
				"%d writebacks in ring buckets but wbPending=%d", n, sm.wbPending)
		}
		for _, wp := range sm.warps {
			if !sm.resident(wp) {
				continue
			}
			if wp.inFlight < 0 || wp.pendingLoads < 0 {
				return sim.violation("warp-counters", sm.id,
					"warp %d: inFlight=%d pendingLoads=%d", wp.id, wp.inFlight, wp.pendingLoads)
			}
			// Scoreboard/in-flight consistency: every pending register is
			// owed to an in-flight instruction, so a drained warp with a
			// non-empty scoreboard is permanently stalled (a leak).
			if wp.inFlight == 0 && !wp.sb.Empty() {
				return sim.violation("scoreboard-leak", sm.id,
					"warp %d: scoreboard has pending registers with no in-flight instructions", wp.id)
			}
			// SIMT divergence stacks are bounded by program structure;
			// unbounded growth means reconvergence is broken.
			if d := wp.exec.StackDepth(); d > 2*progLen+4 {
				return sim.violation("simt-stack-depth", sm.id,
					"warp %d: divergence stack depth %d exceeds bound %d", wp.id, d, 2*progLen+4)
			}
		}
		// MSHR waiter balance: every allocated line must have waiters, and
		// every load waiter must still expect at least one line — a waiter
		// owed zero lines can never be completed or freed (a leak).
		for _, ln := range sm.mshr.Lines() {
			ws := sm.mshr.Waiters(ln)
			if len(ws) == 0 {
				return sim.violation("mshr-waiters", sm.id,
					"line %#x allocated with no waiters", ln)
			}
			for _, wt := range ws {
				if q, ok := wt.(*loadReq); ok && q != nil && q.linesPending <= 0 {
					return sim.violation("mshr-waiters", sm.id,
						"line %#x: load waiter expects %d lines", ln, q.linesPending)
				}
			}
		}
		if len(sm.storeBuf) > storeBufCap {
			return sim.violation("storebuf-bound", sm.id,
				"%d buffered stores exceed capacity %d", len(sm.storeBuf), storeBufCap)
		}
		for _, se := range sm.storeBuf {
			if se.released {
				return sim.violation("storebuf-released", sm.id,
					"line %#x still buffered after release", se.lineAddr)
			}
		}
		// Retry gate: an SM whose scan is not armed skips it, which is
		// exact only if no queued trigger could land now.
		if !sm.retryArmed {
			for i := range sm.decompRetry {
				if sm.triggerCanLand(&sm.decompRetry[i]) {
					return sim.violation("retry-armed", sm.id,
						"queued trigger %d (kind %d) can land but the retry scan is not armed",
						i, sm.decompRetry[i].kind)
				}
			}
		}
		// Issue-scan state: the masks, memo keys and GTO list the issue
		// stage skips and walks by must agree with architected state.
		if d := sm.scanViolation(); d != "" {
			return sim.violation("issue-scan", sm.id, "%s", d)
		}
		for _, cta := range sm.ctas {
			if cta.liveWarps < 0 || cta.atBarrier < 0 || cta.atBarrier > cta.liveWarps {
				return sim.violation("cta-barrier", sm.id,
					"CTA %d: atBarrier=%d liveWarps=%d", cta.id, cta.atBarrier, cta.liveWarps)
			}
		}
	}
	return nil
}

// triggerCanLand reports, without attempting it, whether runTrigger would
// retire pt now: the landing conditions of tryCompressStep,
// tryDecompTrigger and tryECC, read-only.
func (sm *SM) triggerCanLand(pt *pendingTrigger) bool {
	switch pt.kind {
	case pendCompress:
		se := pt.se
		return se.released ||
			sm.awc.CanTrigger(sm.sim.AWS.MustGet(se.chain[se.chainPos]).Priority, se.warp)
	case pendDecomp:
		id, _ := core.DecompRoutineID(pt.st)
		return sm.findAssistHost(sm.sim.AWS.MustGet(id).Priority, pt.warp) >= 0
	default:
		return sm.findAssistHost(sm.sim.AWS.MustGet(core.RtECCCheck).Priority, pt.dc.warp) >= 0
	}
}

// scanViolation checks the issue stage's derived state and returns ""
// when it holds: empty slots hold no verdicts; a dep bit means the
// scoreboard conflicts with the warp's current instruction, an idle bit
// that it has none, an sfu bit that it is a conflict-free SFU op; a
// cached memo key equals a fresh hash. Unless a rebuild is due, the GTO
// order list links exactly the valid warps, and the warps with no
// pending move are in stable-sort order by (lastIssueCycle, slot): a
// pending warp carries its new issue cycle in its old place until the
// next settle.
func (sm *SM) scanViolation() string {
	for _, w := range sm.warps {
		b := w.bit()
		if sm.scan.valid&b == 0 {
			if (sm.scan.dep|sm.scan.idle|sm.scan.sfu)&b != 0 {
				return fmt.Sprintf("invalid slot %d holds scan verdicts", w.id)
			}
			continue
		}
		in := w.exec.CurrentSop()
		free := in != nil && !w.sb.ConflictsSop(in)
		switch {
		case sm.scan.idle&b != 0 && in != nil:
			return fmt.Sprintf("warp %d: idle bit set with a current instruction", w.id)
		case sm.scan.dep&b != 0 && (in == nil || free):
			return fmt.Sprintf("warp %d: dep bit set without a scoreboard conflict", w.id)
		case sm.scan.sfu&b != 0 && !(free && in.Class == isa.ClassSFU):
			return fmt.Sprintf("warp %d: sfu bit set but its instruction is not a conflict-free SFU op", w.id)
		case w.memoKeyOK && (in == nil || w.memoKey != memoKeyFor(w.exec, in)):
			return fmt.Sprintf("warp %d: cached memo key is stale", w.id)
		}
	}
	if sm.orderDirty {
		return ""
	}
	var pending uint64
	for _, w := range sm.issuedBuf {
		pending |= w.bit()
	}
	var prev *warpCtx
	var listed uint64
	last, n := int8(-1), 0
	for i := sm.head; i >= 0; i = sm.next[i] {
		if n++; n > len(sm.warps) || int(i) >= len(sm.warps) {
			return "GTO order list does not end in the warp slots"
		}
		if sm.prev[i] != last {
			return fmt.Sprintf("GTO order list: slot %d's back link is broken", i)
		}
		w := sm.warps[i]
		listed |= w.bit()
		last = i
		if pending&w.bit() != 0 {
			continue
		}
		if prev != nil && !gtoBefore(prev, w) {
			return fmt.Sprintf("GTO order lists warp %d (last issue %d) after warp %d (last issue %d)",
				w.id, w.lastIssueCycle, prev.id, prev.lastIssueCycle)
		}
		prev = w
	}
	if sm.tail != last {
		return "GTO order list: tail is not the last slot"
	}
	if listed != sm.scan.valid {
		return fmt.Sprintf("GTO order lists warps %#x, valid warps are %#x", listed, sm.scan.valid)
	}
	return ""
}
