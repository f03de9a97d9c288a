package gpu

import (
	"fmt"

	"github.com/caba-sim/caba/internal/compress"
	"github.com/caba-sim/caba/internal/core"
	"github.com/caba-sim/caba/internal/isa"
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
// Pending work is held in pointer-linked structures (loadReq, storeEntry,
// fillCtx, decompCtx, decompPlain) that are shared between warps, MSHR
// waiter lists, AWT entries and queued events, so the encoder first
// collects every reachable object into per-type tables (a deterministic
// walk over SM state, then queue events, then memory-side waiters) and
// encodes each reference as a table index. Decode allocates the tables
// first, fills the payloads, then rebuilds the memory system, the event
// queue and the SMs, resolving references back through the tables —
// preserving aliasing exactly.

// snapErrf builds a structured format error for semantic (non-framing)
// snapshot problems.
func snapErrf(format string, args ...any) error {
	return &snapshot.FormatError{Off: -1, Msg: fmt.Sprintf(format, args...)}
}

// maxGPUSnapLen bounds decoded collection lengths in the GPU section.
const maxGPUSnapLen = 1 << 22

// Top-level event-queue action kinds.
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

// objTables are the identity tables for pointer-shared pending-work
// objects. Index order is the deterministic registration order.
type objTables struct {
	loadIdx  map[*loadReq]int
	loads    []*loadReq
	storeIdx map[*storeEntry]int
	stores   []*storeEntry
	fillIdx  map[*fillCtx]int
	fills    []*fillCtx
	dcIdx    map[*decompCtx]int
	dcs      []*decompCtx
	dpIdx    map[*decompPlain]int
	dps      []*decompPlain
	memoIdx  map[*memoCtx]int
	memos    []*memoCtx

	// warpSM maps each warp slot to its SM index so loadReq.warp can be
	// encoded as (sm, slot).
	warpSM map[*warpCtx]int

	err error // first registration failure (unknown object type)
}

func (t *objTables) fail(err error) {
	if t.err == nil {
		t.err = err
	}
}

func (t *objTables) regLoad(q *loadReq) {
	if q == nil {
		return
	}
	if _, ok := t.loadIdx[q]; ok {
		return
	}
	t.loadIdx[q] = len(t.loads)
	t.loads = append(t.loads, q)
}

func (t *objTables) regStore(se *storeEntry) {
	if se == nil {
		return
	}
	if _, ok := t.storeIdx[se]; ok {
		return
	}
	t.storeIdx[se] = len(t.stores)
	t.stores = append(t.stores, se)
}

func (t *objTables) regCont(c cont) {
	t.regFill(c.fill)
	t.regLoad(c.req)
}

func (t *objTables) regFill(fc *fillCtx) {
	if fc == nil {
		return
	}
	if _, ok := t.fillIdx[fc]; ok {
		return
	}
	t.fillIdx[fc] = len(t.fills)
	t.fills = append(t.fills, fc)
	t.regLoad(fc.load)
	t.regStore(fc.se)
	t.regCont(fc.after)
}

func (t *objTables) regDC(dc *decompCtx) {
	if dc == nil {
		return
	}
	if _, ok := t.dcIdx[dc]; ok {
		return
	}
	t.dcIdx[dc] = len(t.dcs)
	t.dcs = append(t.dcs, dc)
	t.regCont(dc.done)
}

func (t *objTables) regDP(dp *decompPlain) {
	if dp == nil {
		return
	}
	if _, ok := t.dpIdx[dp]; ok {
		return
	}
	t.dpIdx[dp] = len(t.dps)
	t.dps = append(t.dps, dp)
	t.regCont(dp.done)
}

func (t *objTables) regMemo(mc *memoCtx) {
	if mc == nil {
		return
	}
	if _, ok := t.memoIdx[mc]; ok {
		return
	}
	t.memoIdx[mc] = len(t.memos)
	t.memos = append(t.memos, mc)
}

func (t *objTables) regUser(u any) {
	switch v := u.(type) {
	case nil:
	case *fillCtx:
		t.regFill(v)
	case *loadReq:
		t.regLoad(v)
	case *storeEntry:
		t.regStore(v)
	case *decompCtx:
		t.regDC(v)
	case *decompPlain:
		t.regDP(v)
	case *memoCtx:
		t.regMemo(v)
	default:
		t.fail(snapErrf("unserializable pending-work object %T", u))
	}
}

// collect registers every reachable pending-work object in deterministic
// order: SM-resident state in SM-index order, then event-queue actions in
// firing order, then memory-side waiters in partition order.
func (sim *Simulator) collect(evs []timing.Event) (*objTables, error) {
	t := &objTables{
		loadIdx:  make(map[*loadReq]int),
		storeIdx: make(map[*storeEntry]int),
		fillIdx:  make(map[*fillCtx]int),
		dcIdx:    make(map[*decompCtx]int),
		dpIdx:    make(map[*decompPlain]int),
		memoIdx:  make(map[*memoCtx]int),
		warpSM:   make(map[*warpCtx]int),
	}
	for _, sm := range sim.sms {
		for _, w := range sm.warps {
			t.warpSM[w] = sm.id
			t.regLoad(w.replay)
		}
		for _, q := range sm.replayQ {
			t.regLoad(q)
		}
		for _, se := range sm.storeBuf {
			t.regStore(se)
		}
		for _, ln := range sm.mshr.Lines() {
			for _, wt := range sm.mshr.Waiters(ln) {
				t.regUser(wt)
			}
		}
		for i := range sm.wbRing {
			for j := range sm.wbRing[i] {
				t.regLoad(sm.wbRing[i][j].req)
			}
		}
		for i := range sm.decompRetry {
			pt := &sm.decompRetry[i]
			t.regStore(pt.se)
			t.regDC(pt.dc)
			t.regCont(pt.done)
		}
		for _, e := range sm.awc.Entries() {
			t.regUser(e.User)
		}
	}
	for _, ev := range evs {
		switch a := ev.Act.(type) {
		case timing.Nop:
		case actHWCompress:
			t.regStore(a.se)
		case actCompleteFill:
			t.regFill(a.fill)
		case actHWDetect:
			t.regFill(a.fill)
		default:
			if !sim.Sys.VisitActionUsers(a, t.regUser) {
				if timing.IsOpaque(a) {
					return nil, snapErrf("opaque closure event on the queue (cannot checkpoint)")
				}
				return nil, snapErrf("unserializable event action %T", a)
			}
		}
	}
	sim.Sys.VisitUsers(t.regUser)
	if t.err != nil {
		return nil, t.err
	}
	return t, nil
}

// encUser encodes a pending-work reference (tagged table index).
func (t *objTables) encUser(w *snapshot.Writer, u any) error {
	switch v := u.(type) {
	case nil:
		w.U8(refNil)
	case *fillCtx:
		w.U8(refFill)
		return t.encFill(w, v)
	case *loadReq:
		w.U8(refLoad)
		return t.encLoad(w, v)
	case *storeEntry:
		w.U8(refStore)
		return t.encStore(w, v)
	case *decompCtx:
		w.U8(refDecompCtx)
		return t.encDC(w, v)
	case *decompPlain:
		w.U8(refDecompPlain)
		return t.encDP(w, v)
	case *memoCtx:
		w.U8(refMemo)
		return t.encMemo(w, v)
	default:
		return snapErrf("unserializable pending-work object %T", u)
	}
	return nil
}

func (t *objTables) encMemo(w *snapshot.Writer, mc *memoCtx) error {
	if mc == nil {
		w.Int(-1)
		return nil
	}
	i, ok := t.memoIdx[mc]
	if !ok {
		return snapErrf("unregistered memoCtx in snapshot walk")
	}
	w.Int(i)
	return nil
}

func (t *objTables) encLoad(w *snapshot.Writer, q *loadReq) error {
	if q == nil {
		w.Int(-1)
		return nil
	}
	i, ok := t.loadIdx[q]
	if !ok {
		return snapErrf("unregistered loadReq in snapshot walk")
	}
	w.Int(i)
	return nil
}

func (t *objTables) encStore(w *snapshot.Writer, se *storeEntry) error {
	if se == nil {
		w.Int(-1)
		return nil
	}
	i, ok := t.storeIdx[se]
	if !ok {
		return snapErrf("unregistered storeEntry in snapshot walk")
	}
	w.Int(i)
	return nil
}

func (t *objTables) encFill(w *snapshot.Writer, fc *fillCtx) error {
	if fc == nil {
		w.Int(-1)
		return nil
	}
	i, ok := t.fillIdx[fc]
	if !ok {
		return snapErrf("unregistered fillCtx in snapshot walk")
	}
	w.Int(i)
	return nil
}

func (t *objTables) encDC(w *snapshot.Writer, dc *decompCtx) error {
	if dc == nil {
		w.Int(-1)
		return nil
	}
	i, ok := t.dcIdx[dc]
	if !ok {
		return snapErrf("unregistered decompCtx in snapshot walk")
	}
	w.Int(i)
	return nil
}

func (t *objTables) encDP(w *snapshot.Writer, dp *decompPlain) error {
	if dp == nil {
		w.Int(-1)
		return nil
	}
	i, ok := t.dpIdx[dp]
	if !ok {
		return snapErrf("unregistered decompPlain in snapshot walk")
	}
	w.Int(i)
	return nil
}

func (t *objTables) encCont(w *snapshot.Writer, c cont) error {
	w.U8(uint8(c.kind))
	w.U64(c.ln)
	if err := t.encFill(w, c.fill); err != nil {
		return err
	}
	return t.encLoad(w, c.req)
}

// encAction encodes a queued event action (GPU kinds inline, memory kinds
// via the memory system's codec).
func (t *objTables) encAction(sim *Simulator) func(*snapshot.Writer, timing.Action) error {
	return func(w *snapshot.Writer, act timing.Action) error {
		switch a := act.(type) {
		case timing.Nop:
			w.U8(akNop)
		case actHWCompress:
			w.U8(akHWCompress)
			w.Int(a.sm.id)
			return t.encStore(w, a.se)
		case actCompleteFill:
			w.U8(akCompleteFill)
			w.Int(a.sm.id)
			w.U64(a.ln)
			return t.encFill(w, a.fill)
		case actHWDetect:
			w.U8(akHWDetect)
			w.Int(a.sm.id)
			w.U64(a.ln)
			return t.encFill(w, a.fill)
		default:
			if timing.IsOpaque(act) {
				return snapErrf("opaque closure event on the queue (cannot checkpoint)")
			}
			w.U8(akMem)
			return sim.Sys.EncodeAction(w, act, t.encUser)
		}
		return nil
	}
}

// saveComp / loadComp serialize a compressed-line value.
func saveComp(w *snapshot.Writer, c compress.Compressed) {
	w.U64(uint64(c.Alg))
	w.U8(c.Enc)
	w.Bytes(c.Data)
}

func loadComp(r *snapshot.Reader) compress.Compressed {
	var c compress.Compressed
	c.Alg = compress.AlgID(r.U64())
	c.Enc = r.U8()
	if b := r.Bytes(maxGPUSnapLen); len(b) > 0 {
		c.Data = append([]byte(nil), b...)
	}
	return c
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
	now, seq, evs := sim.Q.Snapshot()
	t, err := sim.collect(evs)
	if err != nil {
		return nil, err
	}
	w := &snapshot.Writer{}

	// Simulator scalars and statistics.
	w.U64(sim.cycle)
	w.Int(sim.nextCTA)
	w.Int(sim.idleStreak)
	if err := snapshot.EncodePlain(w, *sim.S); err != nil {
		return nil, err
	}

	// Backing memory and compression domain.
	sim.Mem.Save(w)
	sim.Dom.Save(w)

	// Object tables: counts, then payloads in index order. Registration
	// is closed under reference-following, so payload encoding never
	// encounters an unregistered object.
	w.Len(len(t.loads))
	w.Len(len(t.stores))
	w.Len(len(t.fills))
	w.Len(len(t.dcs))
	w.Len(len(t.dps))
	w.Len(len(t.memos))
	for _, q := range t.loads {
		if q.warp == nil {
			w.Int(-1)
			w.Int(-1)
		} else {
			w.Int(t.warpSM[q.warp])
			w.Int(q.warp.id)
		}
		// Superops are interned per program: encode the PC and re-resolve
		// against the kernel's decoded program on load.
		if q.sop != nil {
			w.Bool(true)
			w.Int(int(q.sop.PC))
		} else {
			w.Bool(false)
		}
		w.Int(q.linesPending)
		w.U64(q.issued)
		w.Len(len(q.todo))
		for _, ln := range q.todo {
			w.U64(ln)
		}
	}
	for _, se := range t.stores {
		w.U64(se.lineAddr)
		w.U32(se.coverage)
		w.Int(se.warp)
		w.U64(se.lastTouch)
		w.U8(uint8(se.state))
		w.Len(len(se.chain))
		for _, id := range se.chain {
			w.U64(uint64(id))
		}
		w.Int(se.chainPos)
		w.U64(uint64(se.alg))
		w.Bool(se.released)
	}
	for _, fc := range t.fills {
		w.U8(uint8(fc.kind))
		if err := t.encLoad(w, fc.load); err != nil {
			return nil, err
		}
		if err := t.encStore(w, fc.se); err != nil {
			return nil, err
		}
		if err := t.encCont(w, fc.after); err != nil {
			return nil, err
		}
	}
	for _, dc := range t.dcs {
		w.U64(dc.ln)
		w.Int(dc.warp)
		w.Bool(dc.injected)
		if err := t.encCont(w, dc.done); err != nil {
			return nil, err
		}
		w.Bytes(dc.buf[:])
	}
	for _, dp := range t.dps {
		w.U64(dp.ln)
		if err := t.encCont(w, dp.done); err != nil {
			return nil, err
		}
	}
	for _, mc := range t.memos {
		// The parent warp encodes as (sm, slot) and the superop as its PC,
		// like loadReq; a memoCtx always carries both.
		w.Int(t.warpSM[mc.w])
		w.Int(mc.w.id)
		w.Int(int(mc.sop.PC))
	}

	// Memory system (caches, MSHRs, DRAM timing, injector streams).
	if err := sim.Sys.SaveState(w, t.encAction(sim), t.encUser); err != nil {
		return nil, err
	}

	// Event queue.
	w.F64(now)
	w.U64(seq)
	w.Len(len(evs))
	enc := t.encAction(sim)
	for _, ev := range evs {
		w.F64(ev.Time)
		w.U64(ev.Seq)
		if err := enc(w, ev.Act); err != nil {
			return nil, err
		}
	}

	// Per-SM sections.
	for _, sm := range sim.sms {
		if err := sm.save(w, t); err != nil {
			return nil, err
		}
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
		sim.smp.save(w)
	}
	if sim.Cfg.AttributeStalls {
		for _, sm := range sim.sms {
			sm.attr.Save(w)
		}
	}

	hash, err := sim.configHash()
	if err != nil {
		return nil, err
	}
	return snapshot.Seal(hash, w.Payload()), nil
}

// save serializes one SM.
func (sm *SM) save(w *snapshot.Writer, t *objTables) error {
	// Scalars.
	w.U64(sm.sfuFree)
	w.U64(sm.lsuFree)
	if sm.greedy != nil {
		w.Int(sm.greedy.id)
	} else {
		w.Int(-1)
	}
	w.U64(uint64(sm.lastGoodEnc))
	w.Bool(sm.hasLastGood)
	w.Int(sm.compFailStreak)
	w.Bool(sm.compDisabled)
	w.Bool(sm.qTry)
	w.U64(sm.cycle)
	if err := snapshot.EncodePlain(w, sm.stat); err != nil {
		return err
	}

	// CTAs, then warps (warps reference CTAs by index).
	w.Len(len(sm.ctas))
	for _, cta := range sm.ctas {
		w.Int(cta.id)
		w.Bytes(cta.shared)
		w.Int(cta.liveWarps)
		w.Int(cta.atBarrier)
		w.Len(len(cta.warps))
		for _, cw := range cta.warps {
			w.Int(cw.id)
		}
	}
	for _, wp := range sm.warps {
		valid := sm.resident(wp)
		w.Bool(valid)
		if !valid {
			continue
		}
		ctaIdx := -1
		for i, cta := range sm.ctas {
			if cta == wp.cta {
				ctaIdx = i
				break
			}
		}
		if ctaIdx < 0 {
			return snapErrf("valid warp without a resident CTA")
		}
		w.Int(ctaIdx)
		g, p := wp.sb.Bits()
		for _, v := range g {
			w.U64(v)
		}
		w.U8(p)
		w.Int(wp.inFlight)
		w.Int(wp.pendingLoads)
		if err := t.encLoad(w, wp.replay); err != nil {
			return err
		}
		w.U64(wp.lastIssueCycle)
		wp.exec.Save(w, false)
	}

	// Assist-warp controller (entries carry opaque User refs; the
	// writeback ring below references entries by AWT position).
	if err := sm.awc.Save(w, func(w *snapshot.Writer, e *core.Entry) error {
		return t.encUser(w, e.User)
	}); err != nil {
		return err
	}

	// L1 cache and MSHR.
	sm.l1.Save(w)
	if err := sm.mshr.Save(w, t.encUser); err != nil {
		return err
	}

	// Writeback ring, bucket by bucket.
	ents := sm.awc.Entries()
	entIdx := make(map[*core.Entry]int, len(ents))
	for i, e := range ents {
		entIdx[e] = i
	}
	w.Len(len(sm.wbRing))
	for i := range sm.wbRing {
		w.Len(len(sm.wbRing[i]))
		for j := range sm.wbRing[i] {
			rec := &sm.wbRing[i][j]
			w.U8(uint8(rec.kind))
			// Superops are interned per program: a PC is enough to
			// re-resolve (kernel program for wbWarp, the entry's routine
			// for wbAssist; wbLoad records carry no superop).
			if rec.sop != nil {
				w.Int(int(rec.sop.PC))
			} else {
				w.Int(-1)
			}
			if rec.w != nil {
				w.Int(rec.w.id)
			} else {
				w.Int(-1)
			}
			if rec.e != nil {
				idx, ok := entIdx[rec.e]
				if !ok {
					return snapErrf("writeback record references a retired AWT entry")
				}
				w.Int(idx)
			} else {
				w.Int(-1)
			}
			if err := t.encLoad(w, rec.req); err != nil {
				return err
			}
		}
	}

	// Retry queues and the store buffer.
	w.Len(len(sm.decompRetry))
	for i := range sm.decompRetry {
		pt := &sm.decompRetry[i]
		w.U8(uint8(pt.kind))
		if err := t.encStore(w, pt.se); err != nil {
			return err
		}
		w.U64(pt.ln)
		saveComp(w, pt.st)
		w.Int(pt.warp)
		if err := t.encCont(w, pt.done); err != nil {
			return err
		}
		if err := t.encDC(w, pt.dc); err != nil {
			return err
		}
	}
	w.Len(len(sm.replayQ))
	for _, q := range sm.replayQ {
		if err := t.encLoad(w, q); err != nil {
			return err
		}
	}
	w.Len(len(sm.storeBuf))
	for _, se := range sm.storeBuf {
		if err := t.encStore(w, se); err != nil {
			return err
		}
	}

	// Use-case hardware (layout gated by the hashed Design, so saver and
	// loader always agree on which sub-sections are present).
	sm.saveUseCases(w)
	return nil
}

// decTables is the decode side of the object tables: pre-allocated
// objects, filled in index order.
type decTables struct {
	loads  []*loadReq
	stores []*storeEntry
	fills  []*fillCtx
	dcs    []*decompCtx
	dps    []*decompPlain
	memos  []*memoCtx
}

func (t *decTables) decLoad(r *snapshot.Reader) (*loadReq, error) {
	i := r.Int()
	if i == -1 || r.Err() != nil {
		return nil, r.Err()
	}
	if i < 0 || i >= len(t.loads) {
		return nil, snapErrf("loadReq reference %d out of range", i)
	}
	return t.loads[i], nil
}

func (t *decTables) decStore(r *snapshot.Reader) (*storeEntry, error) {
	i := r.Int()
	if i == -1 || r.Err() != nil {
		return nil, r.Err()
	}
	if i < 0 || i >= len(t.stores) {
		return nil, snapErrf("storeEntry reference %d out of range", i)
	}
	return t.stores[i], nil
}

func (t *decTables) decFill(r *snapshot.Reader) (*fillCtx, error) {
	i := r.Int()
	if i == -1 || r.Err() != nil {
		return nil, r.Err()
	}
	if i < 0 || i >= len(t.fills) {
		return nil, snapErrf("fillCtx reference %d out of range", i)
	}
	return t.fills[i], nil
}

func (t *decTables) decDC(r *snapshot.Reader) (*decompCtx, error) {
	i := r.Int()
	if i == -1 || r.Err() != nil {
		return nil, r.Err()
	}
	if i < 0 || i >= len(t.dcs) {
		return nil, snapErrf("decompCtx reference %d out of range", i)
	}
	return t.dcs[i], nil
}

func (t *decTables) decDP(r *snapshot.Reader) (*decompPlain, error) {
	i := r.Int()
	if i == -1 || r.Err() != nil {
		return nil, r.Err()
	}
	if i < 0 || i >= len(t.dps) {
		return nil, snapErrf("decompPlain reference %d out of range", i)
	}
	return t.dps[i], nil
}

func (t *decTables) decMemo(r *snapshot.Reader) (*memoCtx, error) {
	i := r.Int()
	if i == -1 || r.Err() != nil {
		return nil, r.Err()
	}
	if i < 0 || i >= len(t.memos) {
		return nil, snapErrf("memoCtx reference %d out of range", i)
	}
	return t.memos[i], nil
}

func (t *decTables) decCont(r *snapshot.Reader) (cont, error) {
	var c cont
	k := r.U8()
	if k > uint8(contLoadLineDone) {
		return c, snapErrf("continuation kind %d out of range", k)
	}
	c.kind = contKind(k)
	c.ln = r.U64()
	var err error
	if c.fill, err = t.decFill(r); err != nil {
		return c, err
	}
	c.req, err = t.decLoad(r)
	return c, err
}

// decUser decodes a tagged pending-work reference.
func (t *decTables) decUser(r *snapshot.Reader) (any, error) {
	switch tag := r.U8(); tag {
	case refNil:
		return nil, r.Err()
	case refFill:
		fc, err := t.decFill(r)
		if err != nil {
			return nil, err
		}
		return fc, nil
	case refLoad:
		q, err := t.decLoad(r)
		if err != nil {
			return nil, err
		}
		// A nil reference under the loadReq tag is the MSHR's typed-nil
		// assist-prefetch waiter, restored as such.
		return q, nil
	case refStore:
		se, err := t.decStore(r)
		if err != nil {
			return nil, err
		}
		return se, nil
	case refDecompCtx:
		dc, err := t.decDC(r)
		if err != nil {
			return nil, err
		}
		return dc, nil
	case refDecompPlain:
		dp, err := t.decDP(r)
		if err != nil {
			return nil, err
		}
		return dp, nil
	case refMemo:
		mc, err := t.decMemo(r)
		if err != nil {
			return nil, err
		}
		return mc, nil
	default:
		return nil, snapErrf("pending-work reference tag %d out of range", tag)
	}
}

// decAction decodes a queued event action.
func (t *decTables) decAction(sim *Simulator) func(*snapshot.Reader) (timing.Action, error) {
	return func(r *snapshot.Reader) (timing.Action, error) {
		smFor := func() (*SM, error) {
			i := r.Int()
			if r.Err() != nil {
				return nil, r.Err()
			}
			if i < 0 || i >= len(sim.sms) {
				return nil, snapErrf("SM index %d out of range", i)
			}
			return sim.sms[i], nil
		}
		switch kind := r.U8(); kind {
		case akNop:
			return timing.Nop{}, r.Err()
		case akMem:
			return sim.Sys.DecodeAction(r, t.decUser)
		case akHWCompress:
			sm, err := smFor()
			if err != nil {
				return nil, err
			}
			se, err := t.decStore(r)
			if err != nil {
				return nil, err
			}
			return actHWCompress{sm: sm, se: se}, nil
		case akCompleteFill:
			sm, err := smFor()
			if err != nil {
				return nil, err
			}
			ln := r.U64()
			fc, err := t.decFill(r)
			if err != nil {
				return nil, err
			}
			return actCompleteFill{sm: sm, ln: ln, fill: fc}, nil
		case akHWDetect:
			sm, err := smFor()
			if err != nil {
				return nil, err
			}
			ln := r.U64()
			fc, err := t.decFill(r)
			if err != nil {
				return nil, err
			}
			return actHWDetect{sm: sm, ln: ln, fill: fc}, nil
		default:
			return nil, snapErrf("event action kind %d out of range", kind)
		}
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
	r := snapshot.NewReader(payload)
	cycle := r.U64()
	if err := r.Err(); err != nil {
		return 0, err
	}
	return cycle, nil
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
	r := snapshot.NewReader(payload)

	// Simulator scalars and statistics.
	sim.cycle = r.U64()
	sim.nextCTA = r.Int()
	sim.idleStreak = r.Int()
	if err := snapshot.DecodePlain(r, sim.S); err != nil {
		return err
	}
	if sim.nextCTA < 0 || sim.nextCTA > sim.Kernel.GridCTAs {
		return snapErrf("dispatch cursor out of range")
	}

	// Backing memory and compression domain.
	if err := sim.Mem.Load(r); err != nil {
		return err
	}
	if err := sim.Dom.Load(r); err != nil {
		return err
	}

	// Object tables: allocate, then fill payloads.
	t := &decTables{}
	nLoads := r.Len(maxGPUSnapLen)
	nStores := r.Len(maxGPUSnapLen)
	nFills := r.Len(maxGPUSnapLen)
	nDCs := r.Len(maxGPUSnapLen)
	nDPs := r.Len(maxGPUSnapLen)
	nMemos := r.Len(maxGPUSnapLen)
	if r.Err() != nil {
		return r.Err()
	}
	t.loads = make([]*loadReq, nLoads)
	for i := range t.loads {
		t.loads[i] = &loadReq{}
	}
	t.stores = make([]*storeEntry, nStores)
	for i := range t.stores {
		t.stores[i] = &storeEntry{}
	}
	t.fills = make([]*fillCtx, nFills)
	for i := range t.fills {
		t.fills[i] = &fillCtx{}
	}
	t.dcs = make([]*decompCtx, nDCs)
	for i := range t.dcs {
		t.dcs[i] = &decompCtx{}
	}
	t.dps = make([]*decompPlain, nDPs)
	for i := range t.dps {
		t.dps[i] = &decompPlain{}
	}
	t.memos = make([]*memoCtx, nMemos)
	for i := range t.memos {
		t.memos[i] = &memoCtx{}
	}
	for _, q := range t.loads {
		smIdx, wid := r.Int(), r.Int()
		if smIdx >= 0 {
			if smIdx >= len(sim.sms) || wid < 0 || wid >= len(sim.sms[smIdx].warps) {
				return snapErrf("loadReq warp reference out of range")
			}
			q.warp = sim.sms[smIdx].warps[wid]
		}
		if r.Bool() {
			pc := r.Int()
			ops := sim.Kernel.Prog.Decoded().Ops
			if pc < 0 || pc >= len(ops) {
				return snapErrf("loadReq pc %d out of range", pc)
			}
			q.sop = &ops[pc]
		}
		q.linesPending = r.Int()
		q.issued = r.U64()
		n := r.Len(maxGPUSnapLen)
		if r.Err() != nil {
			return r.Err()
		}
		for i := 0; i < n; i++ {
			q.todo = append(q.todo, r.U64())
		}
	}
	for _, se := range t.stores {
		se.lineAddr = r.U64()
		se.coverage = r.U32()
		se.warp = r.Int()
		se.lastTouch = r.U64()
		st := r.U8()
		if st > uint8(sbQueued) {
			return snapErrf("store-buffer state %d out of range", st)
		}
		se.state = storeState(st)
		n := r.Len(maxGPUSnapLen)
		if r.Err() != nil {
			return r.Err()
		}
		for i := 0; i < n; i++ {
			se.chain = append(se.chain, core.RoutineID(r.U64()))
		}
		se.chainPos = r.Int()
		se.alg = compress.AlgID(r.U64())
		se.released = r.Bool()
		if se.chainPos < 0 || (len(se.chain) > 0 && se.chainPos > len(se.chain)) {
			return snapErrf("compression chain position out of range")
		}
	}
	for _, fc := range t.fills {
		k := r.U8()
		if k > uint8(fillRefetch) {
			return snapErrf("fill kind %d out of range", k)
		}
		fc.kind = fillKind(k)
		if fc.load, err = t.decLoad(r); err != nil {
			return err
		}
		if fc.se, err = t.decStore(r); err != nil {
			return err
		}
		if fc.after, err = t.decCont(r); err != nil {
			return err
		}
	}
	for _, dc := range t.dcs {
		dc.ln = r.U64()
		dc.warp = r.Int()
		dc.injected = r.Bool()
		if dc.done, err = t.decCont(r); err != nil {
			return err
		}
		buf := r.Bytes(maxGPUSnapLen)
		if r.Err() != nil {
			return r.Err()
		}
		if len(buf) != len(dc.buf) {
			return snapErrf("decompression buffer length %d, want %d", len(buf), len(dc.buf))
		}
		copy(dc.buf[:], buf)
	}
	for _, dp := range t.dps {
		dp.ln = r.U64()
		if dp.done, err = t.decCont(r); err != nil {
			return err
		}
	}
	for _, mc := range t.memos {
		smIdx, wid := r.Int(), r.Int()
		if r.Err() != nil {
			return r.Err()
		}
		if smIdx < 0 || smIdx >= len(sim.sms) || wid < 0 || wid >= len(sim.sms[smIdx].warps) {
			return snapErrf("memoCtx warp reference out of range")
		}
		mc.w = sim.sms[smIdx].warps[wid]
		pc := r.Int()
		ops := sim.Kernel.Prog.Decoded().Ops
		if pc < 0 || pc >= len(ops) {
			return snapErrf("memoCtx pc %d out of range", pc)
		}
		mc.sop = &ops[pc]
	}

	// Memory system.
	if err := sim.Sys.LoadState(r, t.decAction(sim), t.decUser); err != nil {
		return err
	}

	// Event queue.
	now := r.F64()
	seq := r.U64()
	n := r.Len(maxGPUSnapLen)
	if r.Err() != nil {
		return r.Err()
	}
	dec := t.decAction(sim)
	evs := make([]timing.Event, 0, n)
	for i := 0; i < n; i++ {
		var ev timing.Event
		ev.Time = r.F64()
		ev.Seq = r.U64()
		if ev.Act, err = dec(r); err != nil {
			return err
		}
		evs = append(evs, ev)
	}
	sim.Q.Restore(now, seq, evs)

	// Per-SM sections.
	for _, sm := range sim.sms {
		if err := sm.load(r, t); err != nil {
			return err
		}
	}

	// Observability state (mirrors SaveState's section layout).
	if sim.smp != nil {
		if err := sim.smp.load(r); err != nil {
			return err
		}
	}
	if sim.Cfg.AttributeStalls {
		for _, sm := range sim.sms {
			if err := sm.attr.Load(r); err != nil {
				return err
			}
		}
	}

	if r.Err() != nil {
		return r.Err()
	}
	if r.Remaining() != 0 {
		return snapErrf("%d trailing bytes after snapshot payload", r.Remaining())
	}
	// Open trace spans for every entity live in the restored state, so
	// the resumed run's trace closes cleanly and validates.
	sim.reopenTraceSpans()
	sim.restored = true
	return nil
}

// load restores one SM from its snapshot section.
func (sm *SM) load(r *snapshot.Reader, t *decTables) error {
	k := sm.sim.Kernel

	// Scalars.
	sm.sfuFree = r.U64()
	sm.lsuFree = r.U64()
	greedyID := r.Int()
	sm.lastGoodEnc = compress.BDIEncoding(r.U64())
	sm.hasLastGood = r.Bool()
	sm.compFailStreak = r.Int()
	sm.compDisabled = r.Bool()
	sm.qTry = r.Bool()
	sm.cycle = r.U64()
	if err := snapshot.DecodePlain(r, &sm.stat); err != nil {
		return err
	}
	if r.Err() != nil {
		return r.Err()
	}
	if greedyID >= len(sm.warps) {
		return snapErrf("greedy warp id out of range")
	}
	sm.greedy = nil
	if greedyID >= 0 {
		sm.greedy = sm.warps[greedyID]
	}

	// CTAs.
	nCTA := r.Len(maxGPUSnapLen)
	if r.Err() != nil {
		return r.Err()
	}
	sm.ctas = sm.ctas[:0]
	sm.drainingCTAs = 0
	for i := 0; i < nCTA; i++ {
		cta := &ctaCtx{id: r.Int()}
		cta.shared = append([]byte(nil), r.Bytes(maxGPUSnapLen)...)
		cta.liveWarps = r.Int()
		if cta.liveWarps == 0 {
			sm.drainingCTAs++
		}
		cta.atBarrier = r.Int()
		nw := r.Len(maxGPUSnapLen)
		if r.Err() != nil {
			return r.Err()
		}
		for j := 0; j < nw; j++ {
			wid := r.Int()
			if r.Err() != nil {
				return r.Err()
			}
			if wid < 0 || wid >= len(sm.warps) {
				return snapErrf("CTA warp id out of range")
			}
			cta.warps = append(cta.warps, sm.warps[wid])
		}
		sm.ctas = append(sm.ctas, cta)
	}

	// Warps. The scan masks restart from the restored residency: the
	// verdicts are derived state and start empty (a clear bit claims
	// nothing), and zeroing the warps zeroed their memo keys.
	sm.scan = scanMasks{}
	for _, wp := range sm.warps {
		*wp = warpCtx{id: wp.id}
		valid := r.Bool()
		if r.Err() != nil {
			return r.Err()
		}
		if !valid {
			continue
		}
		sm.scan.valid |= wp.bit()
		ctaIdx := r.Int()
		if r.Err() != nil {
			return r.Err()
		}
		if ctaIdx < 0 || ctaIdx >= len(sm.ctas) {
			return snapErrf("warp CTA index out of range")
		}
		wp.cta = sm.ctas[ctaIdx]
		var g [4]uint64
		for i := range g {
			g[i] = r.U64()
		}
		wp.sb.SetBits(g, r.U8())
		wp.inFlight = r.Int()
		wp.pendingLoads = r.Int()
		var err error
		if wp.replay, err = t.decLoad(r); err != nil {
			return err
		}
		wp.lastIssueCycle = r.U64()
		wp.exec = core.NewExec(k.Prog, 0)
		if err := wp.exec.Load(r, k.Prog, false); err != nil {
			return err
		}
		wp.exec.Shared = wp.cta.shared
		wp.exec.Mem = sm.sim.Mem
	}

	// Assist-warp controller.
	if err := sm.awc.Load(r, func(r *snapshot.Reader, e *core.Entry) error {
		if e.Warp >= len(sm.warps) {
			return snapErrf("AWT entry parent warp %d out of range", e.Warp)
		}
		user, err := t.decUser(r)
		if err != nil {
			return err
		}
		e.User = user
		e.OnComplete = sm.assistOnComplete(user, e.Routine.ID)
		if e.OnComplete == nil {
			return snapErrf("AWT entry with no restorable completion")
		}
		return nil
	}); err != nil {
		return err
	}

	// L1 cache and MSHR.
	if err := sm.l1.Load(r); err != nil {
		return err
	}
	if err := sm.mshr.Load(r, t.decUser); err != nil {
		return err
	}

	// Writeback ring.
	ents := sm.awc.Entries()
	nb := r.Len(maxGPUSnapLen)
	if r.Err() != nil {
		return r.Err()
	}
	if nb != len(sm.wbRing) {
		return snapErrf("writeback ring size mismatch")
	}
	sm.wbPending = 0
	for i := range sm.wbRing {
		sm.wbRing[i] = sm.wbRing[i][:0]
		nr := r.Len(maxGPUSnapLen)
		if r.Err() != nil {
			return r.Err()
		}
		for j := 0; j < nr; j++ {
			var rec wbRec
			kind := r.U8()
			if kind > uint8(wbLoad) {
				return snapErrf("writeback kind %d out of range", kind)
			}
			rec.kind = wbKind(kind)
			pc := r.Int()
			wid := r.Int()
			eid := r.Int()
			if r.Err() != nil {
				return r.Err()
			}
			if wid >= len(sm.warps) || eid >= len(ents) {
				return snapErrf("writeback reference out of range")
			}
			if wid >= 0 {
				rec.w = sm.warps[wid]
			}
			if eid >= 0 {
				rec.e = ents[eid]
			}
			// Re-resolve the superop against its owning program: the
			// kernel's for warp records, the AWT entry's routine for
			// assist records (entries were decoded above).
			if pc >= 0 {
				var ops []isa.Superop
				switch {
				case rec.e != nil:
					ops = rec.e.Routine.Prog.Decoded().Ops
				default:
					ops = sm.sim.Kernel.Prog.Decoded().Ops
				}
				if pc >= len(ops) {
					return snapErrf("writeback pc %d out of range", pc)
				}
				rec.sop = &ops[pc]
			}
			var err error
			if rec.req, err = t.decLoad(r); err != nil {
				return err
			}
			sm.wbRing[i] = append(sm.wbRing[i], rec)
			sm.wbPending++
		}
	}

	// Retry queues and the store buffer.
	nRetry := r.Len(maxGPUSnapLen)
	if r.Err() != nil {
		return r.Err()
	}
	sm.decompRetry = sm.decompRetry[:0]
	for i := 0; i < nRetry; i++ {
		var pt pendingTrigger
		kind := r.U8()
		if kind > uint8(pendECC) {
			return snapErrf("pending-trigger kind %d out of range", kind)
		}
		pt.kind = pendingKind(kind)
		var err error
		if pt.se, err = t.decStore(r); err != nil {
			return err
		}
		pt.ln = r.U64()
		pt.st = loadComp(r)
		pt.warp = r.Int()
		if pt.done, err = t.decCont(r); err != nil {
			return err
		}
		if pt.dc, err = t.decDC(r); err != nil {
			return err
		}
		sm.decompRetry = append(sm.decompRetry, pt)
	}
	nReplay := r.Len(maxGPUSnapLen)
	if r.Err() != nil {
		return r.Err()
	}
	sm.replayQ = sm.replayQ[:0]
	for i := 0; i < nReplay; i++ {
		q, err := t.decLoad(r)
		if err != nil {
			return err
		}
		if q == nil {
			return snapErrf("nil loadReq in replay queue")
		}
		sm.replayQ = append(sm.replayQ, q)
	}
	nStore := r.Len(maxGPUSnapLen)
	if r.Err() != nil {
		return r.Err()
	}
	sm.storeBuf = sm.storeBuf[:0]
	for i := 0; i < nStore; i++ {
		se, err := t.decStore(r)
		if err != nil {
			return err
		}
		if se == nil {
			return snapErrf("nil storeEntry in store buffer")
		}
		sm.storeBuf = append(sm.storeBuf, se)
	}

	// Use-case hardware.
	if err := sm.loadUseCases(r); err != nil {
		return err
	}

	// Scratch and caches rebuilt from scratch on the next tick;
	// orderDirty rebuilds the GTO list.
	sm.orderDirty = true
	sm.issuedBuf = sm.issuedBuf[:0]
	sm.qValid = false
	// The retry gate is not serialized: rescan the restored queue once.
	sm.retryArmed = true
	return r.Err()
}
