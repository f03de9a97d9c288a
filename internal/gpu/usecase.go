package gpu

import (
	"fmt"

	"github.com/caba-sim/caba/internal/core"
	"github.com/caba-sim/caba/internal/isa"
	"github.com/caba-sim/caba/internal/obs"
	"github.com/caba-sim/caba/internal/snapshot"
)

// Assist-warp use cases beyond compression (Design.UseCase): the
// stride-detection prefetcher and the SFU result-cache memoizer from the
// framework generalization of the paper (Sections 7.1/7.2). Both follow
// the ecc.check precedent: the assist routine charges the timing cost of
// the hardware action (probing the LUT, issuing the prefetch loads)
// while the simulator's functional execution supplies the ground-truth
// values, so architected state is exact and the model measures only when
// the use case pays off, never whether it computes correctly.
//
// Both structures are per-SM, touched only by their owning SM, and
// serialize with the SM snapshot section so
// resumed runs stay bit-identical. They are nil unless the design's
// UseCase enables them, which keeps every existing design's behavior and
// golden outputs untouched.

// Stride-prefetcher geometry and policy knobs.
const (
	// pfTabSize is the direct-mapped stride-table size. Entries are
	// tagged by (warp slot, load PC); two streams hashing to the same
	// index evict each other (aliasing), exactly like a real PC-indexed
	// reference-prediction table.
	pfTabSize = 256
	// pfConfMax is the saturating confidence ceiling; pfConfFire is the
	// confidence a stream needs before triggers fire. Two matching
	// deltas arm a stream, one mismatch disarms it one step (hysteresis
	// rather than reset, so an isolated divergent access does not
	// cold-restart a long stream).
	pfConfMax  = 3
	pfConfFire = 2
	// pfRingSize bounds the usefulness ring: the last N prefetch-filled
	// lines, consumed by demand hits for the PrefetchUseful counter.
	pfRingSize = 64
	// pfRingEmpty marks an unused ring slot (line addresses are
	// line-aligned byte addresses, never all-ones).
	pfRingEmpty = ^uint64(0)
)

// strideEntry is one detector: a tagged (last line, stride, confidence)
// tuple plus the last triggered base, which suppresses duplicate
// triggers for the same window.
type strideEntry struct {
	tag      uint64 // (warp slot << 32) | load PC; mismatch re-allocates
	lastLine uint64
	stride   int64
	lastTrig uint64
	conf     uint8
	valid    bool
}

// prefetcher is the per-SM stride-detection unit: the table, the
// usefulness ring, and the count of prefetch-initiated MSHR fills still
// in flight (the pressure signal the throttle and the CausePrefetchMSHR
// re-attribution read).
type prefetcher struct {
	tab   [pfTabSize]strideEntry
	ring  [pfRingSize]uint64
	pos   int
	lines int
}

func newPrefetcher() *prefetcher {
	p := &prefetcher{}
	for i := range p.ring {
		p.ring[i] = pfRingEmpty
	}
	return p
}

// pfTag packs a stream identity; pfIndex maps it into the table.
func pfTag(slot int, pc int32) uint64 { return uint64(slot)<<32 | uint64(uint32(pc)) }

func pfIndex(tag uint64) int { return int(mix64(tag) & (pfTabSize - 1)) }

// train records one demand L1 miss for the stream and reports whether a
// confident, novel trigger should fire: base is the first line to fetch
// (one stride ahead of the miss) and stride the detected byte stride.
// The caller marks the trigger (markTriggered) only if it actually
// launches, so throttled triggers retry on the stream's next miss.
func (p *prefetcher) train(tag, ln uint64) (base uint64, stride int64, fire bool) {
	e := &p.tab[pfIndex(tag)]
	if !e.valid || e.tag != tag {
		*e = strideEntry{tag: tag, lastLine: ln, valid: true}
		return 0, 0, false
	}
	delta := int64(ln - e.lastLine)
	e.lastLine = ln
	if delta == 0 {
		return 0, 0, false // same line re-missed: no direction signal
	}
	if delta != e.stride {
		if e.conf > 0 {
			e.conf--
			return 0, 0, false
		}
		e.stride = delta
		return 0, 0, false
	}
	if e.conf < pfConfMax {
		e.conf++
	}
	if e.conf < pfConfFire {
		return 0, 0, false
	}
	base = uint64(int64(ln) + e.stride)
	if base == e.lastTrig {
		return 0, 0, false // this window is already covered
	}
	return base, e.stride, true
}

// markTriggered records a launched trigger's base for duplicate
// suppression.
func (p *prefetcher) markTriggered(tag, base uint64) {
	if e := &p.tab[pfIndex(tag)]; e.valid && e.tag == tag {
		e.lastTrig = base
	}
}

// noteFill records a prefetch-filled line in the usefulness ring.
func (p *prefetcher) noteFill(ln uint64) {
	p.ring[p.pos] = ln
	p.pos = (p.pos + 1) % pfRingSize
}

// noteHit consumes a ring entry on a demand hit, reporting whether the
// line was prefetch-filled (each fill is credited at most once).
func (p *prefetcher) noteHit(ln uint64) bool {
	for i := range p.ring {
		if p.ring[i] == ln {
			p.ring[i] = pfRingEmpty
			return true
		}
	}
	return false
}

// Result-cache geometry: memoSets x memoWays content-hash tags. The set
// index reuses the low tag bits that also select the shared-scratch LUT
// slot the probe/save routines address (64 slots x 16 bytes =
// core.SharedScratchSize).
const (
	memoSets     = 64
	memoWays     = 4
	memoSlotSize = 16
)

// memoCache is the per-SM result cache backing the memoization trigger:
// a bounded set-associative tag array over content-hashed SFU inputs,
// with deterministic per-set round-robin replacement. Only tags live
// here — the cached value is architecturally supplied by the simulator's
// functional execution (the ground truth the LUT would hold), so a tag
// hit means "the LUT has this result" and the probe routine charges the
// cost of reading it.
type memoCache struct {
	tags [memoSets * memoWays]uint64
	used [memoSets * memoWays]bool
	rr   [memoSets]uint8
}

// lookup probes the cache; hits do not touch replacement state, so the
// timing-visible decision depends only on architected history.
func (m *memoCache) lookup(key uint64) bool {
	base := int(key&(memoSets-1)) * memoWays
	for i := 0; i < memoWays; i++ {
		if m.used[base+i] && m.tags[base+i] == key {
			return true
		}
	}
	return false
}

// insert installs a tag, evicting round-robin within its set. Inserting
// a present tag is a no-op.
func (m *memoCache) insert(key uint64) {
	set := int(key & (memoSets - 1))
	base := set * memoWays
	for i := 0; i < memoWays; i++ {
		if m.used[base+i] && m.tags[base+i] == key {
			return
		}
	}
	way := int(m.rr[set])
	m.rr[set] = uint8((way + 1) % memoWays)
	m.tags[base+way], m.used[base+way] = key, true
}

// mix64 is the splitmix64 finalizer: the content hash both use cases
// index with. Full 64-bit avalanche keeps tag collisions negligible; the
// model treats a tag hit as exact (the paper targets hashing-tolerant
// kernels, and the functional replay supplies the true value anyway).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// memoKeyFor content-hashes one SFU instruction instance: its PC plus
// every lane's source operand values, read before StepRef moves the
// register file (a source may alias the destination). Special-register
// sources are compile-time constants per lane and fold into the PC term.
func memoKeyFor(ex *core.Exec, in *isa.Superop) uint64 {
	h := mix64(uint64(uint32(in.PC)) ^ 0x9e3779b97f4a7c15)
	if !in.ASpec {
		for lane := 0; lane < core.WarpSize; lane++ {
			h = mix64(h ^ ex.Reg(lane, int(in.A)))
		}
	}
	if !in.BSpec {
		for lane := 0; lane < core.WarpSize; lane++ {
			h = mix64(h ^ ex.Reg(lane, int(in.B)))
		}
	}
	return h
}

// memoKey returns memoKeyFor(w.exec, in) for in, w's current
// instruction, hashing its operand rows once per instruction: the key
// reads only the PC and w's registers, which change only when w steps
// (SM.stepped drops the cached key). Failed probes of an SFU-blocked
// warp re-use it every slot until the warp issues.
func (sm *SM) memoKey(w *warpCtx, in *isa.Superop) uint64 {
	if !w.memoKeyOK {
		w.memoKey, w.memoKeyOK = memoKeyFor(w.exec, in), true
	}
	return w.memoKey
}

// memoCtx links an in-flight memo probe back to the parent instruction
// it replays: the warp whose scoreboard holds the SFU destinations, and
// the superop to release on completion. It is an AWT entry User payload,
// serialized by reference like the decompression contexts.
type memoCtx struct {
	w   *warpCtx
	sop *isa.Superop
}

// --- Cause re-attribution (the new stall causes) ---

// mshrCause classifies an MSHR-overflow stall: with prefetch-initiated
// fills holding MSHR entries the overflow is (at least partly) the
// prefetcher's aggressiveness, and the attribution says so. pf.lines
// only changes inside issue (never during a quiescence window — fills
// run touch() first), so cached verdicts stay exact.
func (sm *SM) mshrCause() obs.Cause {
	if sm.pf != nil && sm.pf.lines > 0 {
		return obs.CausePrefetchMSHR
	}
	return obs.CauseMSHRFull
}

// depCause classifies a scoreboard stall: a warp whose pending producer
// is a memoization probe is waiting on the assist replay, not the SFU
// pipeline, and the attribution separates the two.
func (sm *SM) depCause(w *warpCtx) obs.Cause {
	if w.memoPending {
		return obs.CauseMemoWait
	}
	return obs.CauseScoreboard
}

// --- Trigger paths ---

// pfTrain records one demand miss with the stride unit and launches a
// prefetch assist warp when a stream is confident and the machine has
// headroom. Throttling is the paper's accuracy/coverage knob: triggers
// are dropped — never queued — when the AWC's utilization window is
// saturated, when prefetch fills already hold a quarter of the MSHR
// file, when total MSHR pressure is high, or when no AWT slot is free.
func (sm *SM) pfTrain(w *warpCtx, pc int32, ln uint64) {
	tag := pfTag(w.id, pc)
	base, stride, fire := sm.pf.train(tag, ln)
	if !fire {
		return
	}
	// Throttle on MSHR pressure: prefetch never takes more than a quarter
	// of the file, and never the entries a demand burst would need (the
	// degree's worth of lines must fit with a like-sized demand reserve
	// left over). LowPriorityThrottled folds in the AWC's own
	// memory-pressure signal, shared with the compression write path.
	mshrs := sm.sim.Cfg.L1MSHRs
	if sm.awc.LowPriorityThrottled() ||
		sm.pf.lines >= mshrs/4 ||
		sm.mshr.Outstanding()+2*core.PrefetchDegree > mshrs {
		sm.s.PrefetchThrottled++
		return
	}
	rt := sm.sim.AWS.MustGet(core.RtPrefetch)
	host := sm.findAssistHost(rt.Priority, w.id)
	if host < 0 {
		sm.s.PrefetchThrottled++
		return
	}
	ex := sm.newAssistExec(rt)
	for lane := 0; lane < core.PrefetchDegree; lane++ {
		ex.SetReg(lane, 2, base)
		ex.SetReg(lane, 3, uint64(stride))
	}
	if !sm.launchAssist(rt, host, ex, nil, "prefetch") {
		sm.s.PrefetchThrottled++
		return
	}
	sm.pf.markTriggered(tag, base)
	sm.s.PrefetchTriggers++
}

// memoSlotOff maps a content hash to its shared-scratch LUT byte offset
// — the live-in the AWC's trigger-side hash unit hands the probe/save
// routines in place of an in-routine SFU op.
func memoSlotOff(key uint64) uint64 { return (key & (memoSets - 1)) * memoSlotSize }

// tryMemoProbe launches the high-priority replay assist for a result
// cache hit. On success the parent's SFU destinations stay scoreboarded
// until the probe completes (finishMemoProbe) — the SFU port and its
// initiation interval are never occupied, which is the whole win. False
// means no AWT slot was free and the caller falls back to the SFU.
func (sm *SM) tryMemoProbe(w *warpCtx, in *isa.Superop, key uint64) bool {
	rt := sm.sim.AWS.MustGet(core.RtMemoProbe)
	host := sm.findAssistHost(rt.Priority, w.id)
	if host < 0 {
		return false
	}
	ex := sm.newAssistExec(rt)
	off := memoSlotOff(key)
	for lane := 0; lane < core.WarpSize; lane++ {
		ex.SetReg(lane, 2, key)
		ex.SetReg(lane, 4, off)
	}
	if !sm.launchAssist(rt, host, ex, &memoCtx{w: w, sop: in}, "memo-probe") {
		return false
	}
	w.sb.MarkSop(in)
	w.inFlight++
	w.memoPending = true
	sm.s.MemoHits++
	return true
}

// finishMemoProbe retires a memo probe: the cached result is replayed
// into the parent's architected state (functionally it was already
// computed at issue — the ground truth the LUT holds), so the SFU
// destinations release and the warp resumes.
func (sm *SM) finishMemoProbe(mc *memoCtx) {
	w := mc.w
	w.sb.ClearSop(mc.sop)
	sm.scan.dep &^= w.bit()
	w.inFlight--
	w.memoPending = false
}

// tryMemoIssue issues an SFU instruction through the memoization probe
// path. Only called when the SFU port is saturated (hazard reported
// CauseSFUBusy, the initiation interval): a result-cache hit lets the
// instruction complete via a high-priority probe assist instead of
// waiting for the port, so memoization adds SFU throughput exactly
// where the pipe is the bottleneck. Returns true when the instruction
// issued (consuming the caller's issue slot, but no SFU port).
func (sm *SM) tryMemoIssue(w *warpCtx, in *isa.Superop) bool {
	key := sm.memoKey(w, in) // reads pre-step register state
	if !sm.memo.lookup(key) {
		return false
	}
	if !sm.tryMemoProbe(w, in, key) {
		sm.s.MemoNoSlot++ // hit, but no AWT slot: wait for the port
		return false
	}
	// The probe is in flight; the instruction itself retires through it.
	// The functional step runs now, supplying the architected result the
	// probe replays (the ground truth the LUT holds).
	info, ok := w.exec.StepRef()
	if !ok {
		return true // unreachable: in was CurrentSop, the step executes
	}
	if w.exec.Err != nil {
		sm.fail(fmt.Errorf("gpu: sm%d warp %d: %w", sm.id, w.id, w.exec.Err))
		return true
	}
	sm.stepped(w)
	sm.s.WarpInstrs++
	sm.s.ThreadInstrs += uint64(popcount32(info.ExecMask))
	sm.countClass(in)
	if w.exec.Done {
		sm.noteWarpDone(w)
	}
	return true
}

// tryMemoSave launches the low-priority install assist for a freshly
// computed result. The tag enters the Go-side cache only when the save
// actually launches, so the model never claims a hit the LUT would not
// have; a dropped save just costs a future miss.
func (sm *SM) tryMemoSave(w *warpCtx, key uint64) bool {
	if sm.awc.LowPriorityThrottled() {
		return false
	}
	rt := sm.sim.AWS.MustGet(core.RtMemoSave)
	host := sm.findAssistHost(rt.Priority, w.id)
	if host < 0 {
		return false
	}
	ex := sm.newAssistExec(rt)
	ex.SetReg(0, 2, key)
	ex.SetReg(0, 3, key)
	ex.SetReg(0, 4, memoSlotOff(key))
	return sm.launchAssist(rt, host, ex, nil, "memo-update")
}

// snapUseCases codes the use-case hardware at the end of the SM's
// snapshot section; the layout is gated by the hashed Design, so saver
// and loader always agree on which tables are present.
func (sm *SM) snapUseCases(c *snapshot.Codec) {
	if p := sm.pf; p != nil {
		for i := range p.tab {
			e := &p.tab[i]
			c.U64(&e.tag)
			c.U64(&e.lastLine)
			c.I64(&e.stride)
			c.U64(&e.lastTrig)
			c.U8(&e.conf)
			c.Bool(&e.valid)
		}
		c.U64s(p.ring[:])
		c.Int(&p.pos)
		c.Int(&p.lines)
		c.Check(p.pos >= 0 && p.pos < pfRingSize && p.lines >= 0, "prefetcher state out of range")
	}
	if m := sm.memo; m != nil {
		for i := range m.tags {
			c.U64(&m.tags[i])
			c.Bool(&m.used[i])
		}
		for i := range m.rr {
			c.U8(&m.rr[i])
			if !c.Check(m.rr[i] < memoWays, "result-cache replacement cursor out of range") {
				return
			}
		}
		for _, wp := range sm.warps {
			c.Bool(&wp.memoPending)
		}
	}
}
