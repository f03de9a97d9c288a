package gpu

import (
	"fmt"
	"slices"

	"github.com/caba-sim/caba/internal/core"
	"github.com/caba-sim/caba/internal/isa"
	"github.com/caba-sim/caba/internal/mem"
	"github.com/caba-sim/caba/internal/snapshot"
	"github.com/caba-sim/caba/internal/timing"
)

// Mid-run checkpoint/restore. SaveState captures the complete simulator
// state at a cycle boundary — per-SM SIMT stacks, scoreboards, register
// files, assist-warp staging, caches, MSHRs, DRAM timing, the event heap,
// fault-injector streams and statistics — into one versioned, checksummed
// blob. LoadState restores it into a freshly built Simulator with the same
// configuration. The contract is bit-identical resume: run(N cycles),
// Save, Load into a new sim, run(M−N more) produces exactly the stats and
// error behavior of run(M) straight through.
//
// Pending work is plain data (actions.go): queued events are records
// whose kind selects what runs, and an AWT entry's completion follows from
// its User payload. That data is held in pointer-linked structures
// (loadReq, storeEntry, fillCtx, decompCtx, decompPlain, memoCtx) shared
// between warps, MSHR waiter lists, AWT entries and queued events, so the
// encoder first collects every reachable object into one identity table
// per type (idTable; a deterministic walk over SM state, then queue
// events, then memory-side waiters) and codes each reference as a table
// index. Every type has one snap method that both encodes and decodes it
// through a snapshot.Codec, so the layout is written once. Decoding
// allocates each table from its count first, fills the payloads, then
// rebuilds the memory system, the event queue and the SMs, resolving
// references back through the tables — preserving aliasing exactly.

// snapErrf builds a structured format error for semantic (non-framing)
// snapshot problems found outside a codec.
func snapErrf(format string, args ...any) error {
	return &snapshot.FormatError{Off: -1, Msg: fmt.Sprintf(format, args...)}
}

// maxGPUSnapLen bounds decoded collection lengths in the GPU section.
const maxGPUSnapLen = 1 << 22

// Top-level event-queue action kinds; the three SM kinds are also
// smEvent.kind.
const (
	akNop uint8 = iota
	akMem
	akHWCompress
	akCompleteFill
	akHWDetect
)

// User / object reference tags.
const (
	refNil uint8 = iota
	refFill
	refLoad
	refStore
	refDecompCtx
	refDecompPlain
	refMemo
)

// idTable numbers the distinct objects of one pointer-shared type; a
// reference codes as the object's index, nil as -1. Encoding registers
// the objects (add) in collect's order, which fixes every index and so
// every byte; decoding allocates them from the coded count (size), so
// references resolve before the payloads are filled in.
type idTable[T any] struct {
	idx  map[*T]int // encoding only
	objs []*T
}

// add registers p and reports whether it was new (nil never is).
func (t *idTable[T]) add(p *T) bool {
	if p == nil {
		return false
	}
	if _, ok := t.idx[p]; ok {
		return false
	}
	if t.idx == nil {
		t.idx = make(map[*T]int)
	}
	t.idx[p] = len(t.objs)
	t.objs = append(t.objs, p)
	return true
}

// size codes the object count; decoding allocates that many zero objects.
func (t *idTable[T]) size(c *snapshot.Codec) {
	n := len(t.objs)
	c.Len(&n, maxGPUSnapLen)
	if c.Loading() && c.Err() == nil {
		t.objs = make([]*T, n)
		for i := range t.objs {
			t.objs[i] = new(T)
		}
	}
}

// ref codes a reference to *p.
func (t *idTable[T]) ref(c *snapshot.Codec, p **T) {
	i := -1
	if !c.Loading() && *p != nil {
		var ok bool
		if i, ok = t.idx[*p]; !ok {
			c.Failf("unregistered %T in snapshot walk", *p)
			return
		}
	}
	c.Int(&i)
	if !c.Loading() || c.Err() != nil {
		return
	}
	*p = nil
	if i == -1 {
		return
	}
	if i < 0 || i >= len(t.objs) {
		c.Failf("%T reference %d out of range", *p, i)
		return
	}
	*p = t.objs[i]
}

// userRef codes a User payload held in t's type. A nil reference decodes
// as a typed nil: under the loadReq tag that is the MSHR's
// assist-prefetch waiter, restored as such.
func userRef[T any](c *snapshot.Codec, t *idTable[T], u *any) {
	p, _ := (*u).(*T)
	t.ref(c, &p)
	if c.Loading() {
		*u = p
	}
}

// objTables are the identity tables for pointer-shared pending-work
// objects, one per type.
type objTables struct {
	sim *Simulator

	loads  idTable[loadReq]
	stores idTable[storeEntry]
	fills  idTable[fillCtx]
	dcs    idTable[decompCtx]
	dps    idTable[decompPlain]
	memos  idTable[memoCtx]

	// warpSM maps each warp slot to its SM index so a warp reference can
	// be coded as (sm, slot). Encoding only.
	warpSM map[*warpCtx]int

	err error // first registration failure (unknown object type)
}

// reg registers a pending-work object and, the first time it is seen,
// what it references: a fill's load, its store and its continuation; a
// decompression context's continuation.
func (t *objTables) reg(u any) {
	switch v := u.(type) {
	case nil:
	case *loadReq:
		t.loads.add(v)
	case *storeEntry:
		t.stores.add(v)
	case *fillCtx:
		if t.fills.add(v) {
			t.loads.add(v.load)
			t.stores.add(v.se)
			t.regCont(v.after)
		}
	case *decompCtx:
		if t.dcs.add(v) {
			t.regCont(v.done)
		}
	case *decompPlain:
		if t.dps.add(v) {
			t.regCont(v.done)
		}
	case *memoCtx:
		t.memos.add(v)
	default:
		if t.err == nil {
			t.err = snapErrf("unserializable pending-work object %T", u)
		}
	}
}

// regCont registers a continuation's fill, then its load.
func (t *objTables) regCont(c cont) {
	t.reg(c.fill)
	t.loads.add(c.req)
}

// collect registers every reachable pending-work object in deterministic
// order: SM-resident state in SM-index order, then event-queue actions in
// firing order, then memory-side waiters in partition order. Decoding
// needs no walk: it allocates each table from its coded count.
func (sim *Simulator) collect(evs []timing.Event) (*objTables, error) {
	t := &objTables{sim: sim, warpSM: make(map[*warpCtx]int)}
	for _, sm := range sim.sms {
		for _, w := range sm.warps {
			t.warpSM[w] = sm.id
			t.loads.add(w.replay)
		}
		for _, q := range sm.replayQ {
			t.loads.add(q)
		}
		for _, se := range sm.storeBuf {
			t.stores.add(se)
		}
		for _, ln := range sm.mshr.Lines() {
			for _, wt := range sm.mshr.Waiters(ln) {
				t.reg(wt)
			}
		}
		for i := range sm.wbRing {
			for j := range sm.wbRing[i] {
				t.loads.add(sm.wbRing[i][j].req)
			}
		}
		for i := range sm.decompRetry {
			pt := &sm.decompRetry[i]
			t.stores.add(pt.se)
			t.reg(pt.dc)
			t.regCont(pt.done)
		}
		for _, e := range sm.awc.Entries() {
			t.reg(e.User)
		}
	}
	for _, ev := range evs {
		switch a := ev.Act.(type) {
		case timing.Nop:
		case smEvent:
			t.stores.add(a.se)
			t.reg(a.fill)
		default:
			if !sim.Sys.VisitActionUsers(a, t.reg) {
				return nil, snapErrf("unserializable event action %T", a)
			}
		}
	}
	sim.Sys.VisitUsers(t.reg)
	if t.err != nil {
		return nil, t.err
	}
	return t, nil
}

// user codes a pending-work reference: a type tag, then a table index.
func (t *objTables) user(c *snapshot.Codec, u *any) {
	tag := refNil
	if !c.Loading() {
		switch (*u).(type) {
		case nil:
		case *fillCtx:
			tag = refFill
		case *loadReq:
			tag = refLoad
		case *storeEntry:
			tag = refStore
		case *decompCtx:
			tag = refDecompCtx
		case *decompPlain:
			tag = refDecompPlain
		case *memoCtx:
			tag = refMemo
		default:
			c.Failf("unserializable pending-work object %T", *u)
			return
		}
	}
	c.U8(&tag)
	switch tag {
	case refNil:
		if c.Loading() {
			*u = nil
		}
	case refFill:
		userRef(c, &t.fills, u)
	case refLoad:
		userRef(c, &t.loads, u)
	case refStore:
		userRef(c, &t.stores, u)
	case refDecompCtx:
		userRef(c, &t.dcs, u)
	case refDecompPlain:
		userRef(c, &t.dps, u)
	case refMemo:
		userRef(c, &t.memos, u)
	default:
		c.Failf("pending-work reference tag %d out of range", tag)
	}
}

// cont codes a continuation by value, its fill and load by reference.
func (t *objTables) cont(c *snapshot.Codec, p *cont) {
	snapshot.Kind(c, &p.kind, contLoadLineDone)
	c.U64(&p.ln)
	t.fills.ref(c, &p.fill)
	t.loads.ref(c, &p.req)
}

// warp codes a warp reference as (SM index, slot), nil as (-1, -1).
func (t *objTables) warp(c *snapshot.Codec, w **warpCtx) {
	sm, slot := -1, -1
	if *w != nil {
		sm, slot = t.warpSM[*w], (*w).id
	}
	c.Int(&sm)
	c.Int(&slot)
	if !c.Loading() || sm < 0 {
		return
	}
	sms := t.sim.sms
	if c.Check(sm < len(sms) && slot >= 0 && slot < len(sms[sm].warps), "warp reference out of range") {
		*w = sms[sm].warps[slot]
	}
}

// action codes a queued event action: the GPU's kinds inline, the memory
// system's through its codec.
func (t *objTables) action(c *snapshot.Codec, act *timing.Action) {
	kind := akMem
	var a smEvent
	if !c.Loading() {
		switch v := (*act).(type) {
		case timing.Nop:
			kind = akNop
		case smEvent:
			kind, a = v.kind, v
		}
	}
	c.U8(&kind)
	switch kind {
	case akNop:
		if c.Loading() {
			*act = timing.Nop{}
		}
	case akMem:
		t.sim.Sys.Action(c, act, t.user)
	case akHWCompress, akCompleteFill, akHWDetect:
		sm := -1
		if a.sm != nil {
			sm = a.sm.id
		}
		c.Int(&sm)
		if !c.Check(sm >= 0 && sm < len(t.sim.sms), "SM index out of range") {
			return
		}
		if kind == akHWCompress {
			t.stores.ref(c, &a.se)
		} else {
			c.U64(&a.ln)
			t.fills.ref(c, &a.fill)
		}
		if c.Loading() {
			a.sm, a.kind = t.sim.sms[sm], kind
			*act = a
		}
	default:
		c.Failf("event action kind %d out of range", kind)
	}
}

// pcOf returns a superop's PC, -1 for nil. Superops are interned per
// program, so a PC is enough to re-resolve one against its program's
// decoded ops.
func pcOf(sop *isa.Superop) int {
	if sop == nil {
		return -1
	}
	return int(sop.PC)
}

// opAt resolves a decoded PC against ops.
func opAt(c *snapshot.Codec, ops []isa.Superop, pc int, what string) *isa.Superop {
	if !c.Check(pc >= 0 && pc < len(ops), what+" pc out of range") {
		return nil
	}
	return &ops[pc]
}

// snap codes one load: its warp as (sm, slot) and its superop as a PC
// against the kernel's program.
func (q *loadReq) snap(c *snapshot.Codec, t *objTables) {
	t.warp(c, &q.warp)
	hasOp := q.sop != nil
	c.Bool(&hasOp)
	if hasOp {
		pc := pcOf(q.sop)
		c.Int(&pc)
		if c.Loading() {
			q.sop = opAt(c, t.sim.Kernel.Prog.Decoded().Ops, pc, "loadReq")
		}
	}
	c.Int(&q.linesPending)
	c.U64(&q.issued)
	snapshot.Slice(c, &q.todo, maxGPUSnapLen, c.U64)
}

// snap codes one buffered store line.
func (se *storeEntry) snap(c *snapshot.Codec) {
	c.U64(&se.lineAddr)
	c.U32(&se.coverage)
	c.Int(&se.warp)
	c.U64(&se.lastTouch)
	snapshot.Kind(c, &se.state, sbQueued)
	snapshot.Slice(c, &se.chain, maxGPUSnapLen, func(id *core.RoutineID) { snapshot.Num(c, id) })
	c.Int(&se.chainPos)
	snapshot.Num(c, &se.alg)
	c.Bool(&se.released)
	c.Check(se.chainPos >= 0 && (len(se.chain) == 0 || se.chainPos <= len(se.chain)), "compression chain position out of range")
}

// snap codes one fill context.
func (fc *fillCtx) snap(c *snapshot.Codec, t *objTables) {
	snapshot.Kind(c, &fc.kind, fillRefetch)
	t.loads.ref(c, &fc.load)
	t.stores.ref(c, &fc.se)
	t.cont(c, &fc.after)
}

// snap codes one decompression context.
func (dc *decompCtx) snap(c *snapshot.Codec, t *objTables) {
	c.U64(&dc.ln)
	c.Int(&dc.warp)
	c.Bool(&dc.injected)
	t.cont(c, &dc.done)
	c.Fixed(dc.buf[:])
}

// snap codes one plain decompression payload.
func (dp *decompPlain) snap(c *snapshot.Codec, t *objTables) {
	c.U64(&dp.ln)
	t.cont(c, &dp.done)
}

// snap codes one memoization probe: its parent warp as (sm, slot) and its
// superop as a PC, like loadReq; a memoCtx always carries both.
func (mc *memoCtx) snap(c *snapshot.Codec, t *objTables) {
	t.warp(c, &mc.w)
	c.Check(mc.w != nil, "memoCtx warp reference out of range")
	pc := pcOf(mc.sop)
	c.Int(&pc)
	if c.Loading() {
		mc.sop = opAt(c, t.sim.Kernel.Prog.Decoded().Ops, pc, "memoCtx")
	}
}

// configHash binds a snapshot to the run it came from: the
// result-determining configuration (config.Config.ResultConfig, which
// lists the fields a resuming process may change), the design and the
// kernel identity.
func (sim *Simulator) configHash() (uint64, error) {
	k := sim.Kernel
	return snapshot.HashPlain(sim.Cfg.ResultConfig(), sim.Design, k.Prog.Name, len(k.Prog.Code),
		k.Prog.NumReg, k.GridCTAs, k.CTAThreads, k.SharedMem, k.Params)
}

// queued is the event queue's state as a snapshot carries it.
type queued struct {
	now float64
	seq uint64
	evs []timing.Event
}

// SaveState serializes the complete simulator state into a sealed blob.
// It must be called at a cycle boundary — Run's checkpoint hook satisfies
// this; callers between Run invocations (a finished or interrupted sim) do
// too, provided no SM has failed.
func (sim *Simulator) SaveState() ([]byte, error) {
	for _, sm := range sim.sms {
		if sm.fatal != nil {
			return nil, fmt.Errorf("gpu: snapshot at cycle %d: SM %d has a fatal error: %w", sim.cycle, sm.id, sm.fatal)
		}
	}
	var q queued
	q.now, q.seq, q.evs = sim.Q.Snapshot()
	t, err := sim.collect(q.evs)
	if err != nil {
		return nil, err
	}
	c := snapshot.Encoder()
	c.Grow(sim.snapSize + sim.snapSize/8)
	if sim.snap(c, t, &q); c.Err() != nil {
		return nil, c.Err()
	}
	hash, err := sim.configHash()
	if err != nil {
		return nil, err
	}
	sim.snapSize = len(c.Payload())
	return c.Seal(hash), nil
}

// snap codes the whole simulator: t holds the collected object tables
// when encoding (empty ones when decoding), q the event queue.
func (sim *Simulator) snap(c *snapshot.Codec, t *objTables, q *queued) {
	// Simulator scalars and statistics.
	c.U64(&sim.cycle)
	c.Int(&sim.nextCTA)
	c.Int(&sim.idleStreak)
	c.Plain(sim.S)
	c.U64(&sim.decompMismatches)
	c.Check(sim.nextCTA >= 0 && sim.nextCTA <= sim.Kernel.GridCTAs, "dispatch cursor out of range")

	// Backing memory and compression domain.
	sim.Mem.Snap(c)
	sim.Dom.Snap(c)

	// Object tables: counts, then payloads in index order. Registration
	// is closed under reference-following, so encoding a payload never
	// meets an unregistered object.
	t.loads.size(c)
	t.stores.size(c)
	t.fills.size(c)
	t.dcs.size(c)
	t.dps.size(c)
	t.memos.size(c)
	for _, o := range t.loads.objs {
		o.snap(c, t)
	}
	for _, o := range t.stores.objs {
		o.snap(c)
	}
	for _, o := range t.fills.objs {
		o.snap(c, t)
	}
	for _, o := range t.dcs.objs {
		o.snap(c, t)
	}
	for _, o := range t.dps.objs {
		o.snap(c, t)
	}
	for _, o := range t.memos.objs {
		o.snap(c, t)
	}

	// Memory system (caches, MSHRs, DRAM timing, injector streams).
	sim.Sys.Snap(c, t.action, t.user)

	// Event queue.
	c.F64(&q.now)
	c.U64(&q.seq)
	snapshot.Slice(c, &q.evs, maxGPUSnapLen, func(ev *timing.Event) {
		c.F64(&ev.Time)
		c.U64(&ev.Seq)
		t.action(c, &ev.Act)
	})

	// Per-SM sections.
	for _, sm := range sim.sms {
		sm.snap(c, t)
	}

	// Observability state. Which subsections exist is pinned by the
	// config hash (SampleEvery and AttributeStalls are hashed), so the
	// saving and resuming processes always agree on the layout. The
	// sampler carries its cursor and every recorded row, making a
	// resumed run's series identical to the uninterrupted one; the
	// attribution tables carry their cumulative counts. Trace state is
	// deliberately absent — a resumed run re-opens spans for live
	// entities and its trace covers restore→end.
	if sim.smp != nil {
		sim.smp.snap(c)
	}
	if sim.Cfg.AttributeStalls {
		for _, sm := range sim.sms {
			sm.attr.Snap(c)
		}
	}
}

// snap codes one SM.
func (sm *SM) snap(c *snapshot.Codec, t *objTables) {
	if c.Err() != nil {
		return
	}
	k := sm.sim.Kernel

	// Scalars.
	c.U64(&sm.sfuFree)
	c.U64(&sm.lsuFree)
	sm.slot(c, &sm.greedy)
	snapshot.Num(c, &sm.lastGoodEnc)
	c.Bool(&sm.hasLastGood)
	c.Int(&sm.compFailStreak)
	c.Bool(&sm.compDisabled)
	c.Bool(&sm.qTry)
	c.U64(&sm.cycle)

	// CTAs, then warps (warps reference CTAs by index).
	snapshot.Slice(c, &sm.ctas, maxGPUSnapLen, func(p **ctaCtx) {
		if c.Loading() {
			*p = &ctaCtx{}
		}
		cta := *p
		c.Int(&cta.id)
		c.Bytes(&cta.shared, maxGPUSnapLen)
		c.Int(&cta.liveWarps)
		c.Int(&cta.atBarrier)
		snapshot.Slice(c, &cta.warps, maxGPUSnapLen, func(w **warpCtx) {
			sm.slot(c, w)
			c.Check(*w != nil, "CTA warp id out of range")
		})
	})
	if c.Loading() {
		sm.drainingCTAs = 0
		for _, cta := range sm.ctas {
			if cta.liveWarps == 0 {
				sm.drainingCTAs++
			}
		}
		// The scan masks restart from the restored residency: the
		// verdicts are derived state and start empty (a clear bit claims
		// nothing), and zeroing the warps zeroes their memo keys.
		sm.scan = scanMasks{}
	}
	for _, wp := range sm.warps {
		if c.Loading() {
			*wp = warpCtx{id: wp.id}
		}
		// Every slot keeps its last issue cycle: a warp placed into a
		// free slot inherits it, and the GTO order reads it.
		c.U64(&wp.lastIssueCycle)
		valid := sm.resident(wp)
		if c.Bool(&valid); !valid {
			continue
		}
		ctaIdx := slices.Index(sm.ctas, wp.cta)
		c.Int(&ctaIdx)
		if !c.Check(ctaIdx >= 0 && ctaIdx < len(sm.ctas), "warp CTA index out of range") {
			return
		}
		if c.Loading() {
			sm.scan.valid |= wp.bit()
			wp.cta = sm.ctas[ctaIdx]
			wp.exec = core.NewExec(k.Prog, 0)
		}
		wp.sb.Snap(c)
		c.Int(&wp.inFlight)
		c.Int(&wp.pendingLoads)
		t.loads.ref(c, &wp.replay)
		wp.exec.Snap(c, k.Prog, false)
		if c.Loading() {
			wp.exec.Shared = wp.cta.shared
			wp.exec.Mem = sm.sim.Mem
		}
	}

	// Assist-warp controller (entries carry opaque User refs; the
	// writeback ring below references entries by AWT position).
	sm.awc.Snap(c, func(c *snapshot.Codec, e *core.Entry) {
		if !c.Check(e.Warp < len(sm.warps), "AWT entry parent warp out of range") {
			return
		}
		t.user(c, &e.User)
		if completionOf(e.User, e.Routine.ID) == noCompletion {
			c.Failf("AWT entry whose payload %T names no completion for routine %d", e.User, e.Routine.ID)
		}
	})

	// L1 cache and MSHR.
	sm.l1.Snap(c)
	sm.mshr.Snap(c, t.user)

	// Writeback ring, bucket by bucket.
	ents := sm.awc.Entries()
	c.Shape(len(sm.wbRing), "writeback ring size")
	if c.Loading() {
		sm.wbPending = 0
	}
	for i := range sm.wbRing {
		snapshot.Slice(c, &sm.wbRing[i], maxGPUSnapLen, func(rec *wbRec) {
			snapshot.Kind(c, &rec.kind, wbLoad)
			pc := pcOf(rec.sop)
			c.Int(&pc)
			sm.slot(c, &rec.w)
			e := -1
			if rec.e != nil {
				e = slices.Index(ents, rec.e)
				c.Check(e >= 0, "writeback record references a retired AWT entry")
			}
			c.Int(&e)
			if c.Loading() && c.Check(e < len(ents), "writeback reference out of range") {
				if e >= 0 {
					rec.e = ents[e]
				}
				// Re-resolve the superop against its owning program: the
				// kernel's for warp records, the AWT entry's routine for
				// assist records (entries were decoded above; wbLoad
				// records carry no superop).
				if pc >= 0 {
					ops := k.Prog.Decoded().Ops
					if rec.e != nil {
						ops = rec.e.Routine.Prog.Decoded().Ops
					}
					rec.sop = opAt(c, ops, pc, "writeback")
				}
			}
			t.loads.ref(c, &rec.req)
		})
		if c.Loading() {
			sm.wbPending += len(sm.wbRing[i])
		}
	}

	// Retry queues and the store buffer.
	snapshot.Slice(c, &sm.decompRetry, maxGPUSnapLen, func(pt *pendingTrigger) {
		snapshot.Kind(c, &pt.kind, pendECC)
		t.stores.ref(c, &pt.se)
		c.U64(&pt.ln)
		mem.SnapCompressed(c, &pt.st)
		c.Int(&pt.warp)
		t.cont(c, &pt.done)
		t.dcs.ref(c, &pt.dc)
	})
	snapshot.Slice(c, &sm.replayQ, maxGPUSnapLen, func(q **loadReq) {
		t.loads.ref(c, q)
		c.Check(*q != nil, "nil loadReq in replay queue")
	})
	snapshot.Slice(c, &sm.storeBuf, maxGPUSnapLen, func(se **storeEntry) {
		t.stores.ref(c, se)
		c.Check(*se != nil, "nil storeEntry in store buffer")
	})

	// Use-case hardware (layout gated by the hashed Design, so saver and
	// loader always agree on which sub-sections are present).
	sm.snapUseCases(c)

	if c.Loading() {
		// Scratch and caches rebuilt from scratch on the next tick;
		// orderDirty rebuilds the GTO list.
		sm.orderDirty = true
		sm.issuedBuf = sm.issuedBuf[:0]
		sm.qValid = false
		// The retry gate is not serialized: rescan the restored queue once.
		sm.retryArmed = true
	}
}

// slot codes a reference to one of the SM's warp slots as its index, nil
// as -1 (decoding takes any negative index as nil).
func (sm *SM) slot(c *snapshot.Codec, w **warpCtx) {
	id := -1
	if *w != nil {
		id = (*w).id
	}
	c.Int(&id)
	if !c.Loading() {
		return
	}
	*w = nil
	if c.Check(id < len(sm.warps), "warp slot out of range") && id >= 0 {
		*w = sm.warps[id]
	}
}

// SnapshotCycle reads the simulated cycle a checkpoint blob was taken at
// without restoring it (the cycle counter is the payload's first field).
// It validates the container's integrity — magic, version, length, CRC —
// but not the configuration hash, so blob custodians (the farm
// coordinator's checkpoint store, progress reporting) can use it on blobs
// for simulators they never build. Corrupt blobs return a structured
// error, never a bogus cycle.
func SnapshotCycle(blob []byte) (uint64, error) {
	_, payload, err := snapshot.Inspect(blob)
	if err != nil {
		return 0, err
	}
	var cycle uint64
	c := snapshot.Decoder(payload)
	c.U64(&cycle)
	return cycle, c.Err()
}

// LoadState restores a snapshot produced by SaveState into this freshly
// built simulator. The blob's embedded configuration hash must match this
// simulator's configuration, design and kernel identity. On any error the
// simulator is unusable and must be discarded; LoadState never panics on
// corrupted input.
func (sim *Simulator) LoadState(blob []byte) (err error) {
	defer func() {
		// The decoder validates lengths, enum ranges and references
		// explicitly; the backstop converts any escaped decode panic on
		// adversarial input into a structured error.
		if p := recover(); p != nil {
			err = snapErrf("snapshot decode panic: %v", p)
		}
	}()
	hash, err := sim.configHash()
	if err != nil {
		return err
	}
	payload, err := snapshot.Open(blob, hash)
	if err != nil {
		return err
	}
	c := snapshot.Decoder(payload)
	var q queued
	if sim.snap(c, &objTables{sim: sim}, &q); c.Err() != nil {
		return c.Err()
	}
	if c.Remaining() != 0 {
		return snapErrf("%d trailing bytes after snapshot payload", c.Remaining())
	}
	sim.snapSize = len(payload)
	sim.Q.Restore(q.now, q.seq, q.evs)
	// Open trace spans for every entity live in the restored state, so
	// the resumed run's trace closes cleanly and validates.
	sim.reopenTraceSpans()
	sim.restored = true
	return nil
}
