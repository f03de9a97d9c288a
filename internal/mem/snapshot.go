package mem

import (
	"fmt"
	"sort"

	"github.com/caba-sim/caba/internal/compress"
	"github.com/caba-sim/caba/internal/snapshot"
	"github.com/caba-sim/caba/internal/timing"
)

// Checkpoint codecs for the memory hierarchy: caches, MSHRs, backing
// memory, compression metadata, DRAM channel/bank timing and the crossbar
// links. Each type has one Snap method that both encodes and decodes it
// (snapshot.Codec). Opaque GPU-owned payloads (MSHR waiters' user
// pointers, DRAM completion actions) go through caller-supplied methods;
// everything else is coded by value. Structural dimensions (set counts,
// bank counts) are coded as shapes, so a blob can never be restored into
// a differently-shaped hierarchy.

// maxMemSnapLen bounds decoded collection lengths in this package.
const maxMemSnapLen = 1 << 24

// --- Cache ---

// Snap codes tags and line metadata. Geometry is checked, not
// restored: the owner rebuilds the cache from configuration.
func (c *Cache) Snap(cd *snapshot.Codec) {
	cd.Shape(c.numSets, "cache set count")
	cd.Shape(len(c.sets[0]), "cache associativity")
	cd.U64(&c.tick)
	for _, set := range c.sets {
		for i := range set {
			l := &set[i]
			cd.U64(&l.lineAddr)
			cd.Bool(&l.valid)
			cd.Bool(&l.dirty)
			cd.Int(&l.size)
			cd.U64(&l.lru)
		}
	}
}

// --- MSHR ---

// Lines returns the outstanding line addresses in ascending order (a
// deterministic iteration order for serialization and audits).
func (m *MSHR) Lines() []uint64 {
	lines := make([]uint64, 0, len(m.entries))
	for ln := range m.entries {
		lines = append(lines, ln)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	return lines
}

// Waiters returns the waiters registered for a line, in arrival order.
func (m *MSHR) Waiters(ln uint64) []any { return m.entries[ln] }

// Snap codes the outstanding entries in ascending line order; waiter
// codes each opaque waiter.
func (m *MSHR) Snap(c *snapshot.Codec, waiter func(*snapshot.Codec, *any)) {
	snapshot.Map(c, m.entries, maxMemSnapLen, func(ws *[]any) {
		snapshot.Slice(c, ws, maxMemSnapLen, func(w *any) { waiter(c, w) })
	})
}

// --- Memory ---

// Snap codes the backing store, pages in ascending order. Workload data
// mutates during a run, so the full image is part of a checkpoint.
func (m *Memory) Snap(c *snapshot.Codec) {
	snapshot.Map(c, m.pages, maxMemSnapLen, func(p **[pageSize]byte) {
		if c.Loading() {
			*p = new([pageSize]byte)
		}
		c.Fixed((*p)[:])
	})
}

// --- Domain ---

// SnapCompressed codes one compression state by value (the domain's
// per-line states here, the GPU's queued decompression triggers).
func SnapCompressed(c *snapshot.Codec, p *compress.Compressed) {
	snapshot.Num(c, &p.Alg)
	c.U8(&p.Enc)
	c.Bytes(&p.Data, maxMemSnapLen)
}

// Snap codes the per-line compression states in ascending line order.
func (d *Domain) Snap(c *snapshot.Codec) {
	snapshot.Map(c, d.lines, maxMemSnapLen, func(v *compress.Compressed) { SnapCompressed(c, v) })
}

// --- DRAM channel ---

// snap codes the channel's timing state and request queue; action codes
// each request's completion action.
func (ch *Channel) snap(c *snapshot.Codec, action func(*snapshot.Codec, *timing.Action)) {
	c.F64(&ch.busNextFree)
	c.Bool(&ch.busy)
	c.Shape(len(ch.banks), "DRAM bank count")
	for i := range ch.banks {
		c.I64(&ch.banks[i].openRow)
		c.F64(&ch.banks[i].nextReady)
	}
	snapshot.Slice(c, &ch.queue, maxMemSnapLen, func(p **dramReq) {
		if c.Loading() {
			*p = &dramReq{}
		}
		rq := *p
		c.U64(&rq.lineAddr)
		c.Bool(&rq.write)
		c.Int(&rq.bursts)
		c.F64(&rq.arrival)
		c.Bool(&rq.mdMiss)
		action(c, &rq.done)
	})
	hasMD := ch.md != nil
	c.Bool(&hasMD)
	if c.Check(hasMD == (ch.md != nil), "MD cache presence mismatch") && hasMD {
		ch.md.c.Snap(c)
	}
}

// --- System ---

// VisitActionUsers calls f on the opaque user payload carried by a memory
// action, if any. It reports whether act is one of this package's actions
// (timing.Nop counts as recognized: the channel schedules it for
// fire-and-forget writes).
func (sys *System) VisitActionUsers(act timing.Action, f func(user any)) bool {
	switch a := act.(type) {
	case event:
		if !a.kind.plain() {
			f(a.user)
		}
	case *Channel, timing.Nop:
	default:
		return false
	}
	return true
}

// VisitUsers walks every opaque user payload held inside the memory
// system (L2 MSHR waiters and DRAM queue completion actions) in a
// deterministic order, so the GPU core can register its payload objects
// before encoding.
func (sys *System) VisitUsers(f func(user any)) {
	for _, p := range sys.parts {
		for _, ln := range p.mshr.Lines() {
			for _, wt := range p.mshr.Waiters(ln) {
				f(wt.(readWaiter).user)
			}
		}
		for _, rq := range p.ch.queue {
			sys.VisitActionUsers(rq.done, f)
		}
	}
}

// Action codes one of this package's event-queue actions: the kind tag,
// the partition (or, for a channel's next service, the channel) index,
// then the fields the kind carries. user codes opaque user payloads.
// Encoding any other action fails the codec (the caller owns the
// top-level action dispatch).
func (sys *System) Action(c *snapshot.Codec, act *timing.Action, user func(*snapshot.Codec, *any)) {
	var a event
	part := 0
	if !c.Loading() {
		switch v := (*act).(type) {
		case *Channel:
			a.kind, part = evServe, v.id
		case event:
			a, part = v, v.p.id
		default:
			c.Failf("not a memory action: %T", v)
			return
		}
	}
	snapshot.Kind(c, &a.kind, evServe)
	c.Int(&part)
	if !c.Check(part >= 0 && part < len(sys.parts), "partition index out of range") {
		return
	}
	p := sys.parts[part]
	switch {
	case a.kind == evServe:
		if c.Loading() {
			*act = p.ch
		}
		return
	case !a.kind.plain():
		c.Int(&a.sm)
	}
	c.U64(&a.ln)
	if a.kind == evRespSend {
		flits := int(a.flits)
		c.Int(&flits)
		a.flits = int32(flits)
	}
	if !a.kind.plain() {
		user(c, &a.user)
	}
	if c.Loading() {
		a.p = p
		*act = a
	}
}

// Snap codes the crossbar links, every partition (L2 cache, MSHR,
// channel) and the fault-injector streams. action and user code DRAM
// completion actions and opaque waiter payloads.
func (sys *System) Snap(c *snapshot.Codec,
	action func(*snapshot.Codec, *timing.Action),
	user func(*snapshot.Codec, *any)) {
	c.Shape(len(sys.X.reqIn), "crossbar width")
	for i := range sys.X.reqIn {
		c.F64(&sys.X.reqIn[i])
	}
	for i := range sys.X.respOut {
		c.F64(&sys.X.respOut[i])
	}
	c.Shape(len(sys.parts), "partition count")
	for _, p := range sys.parts {
		p.cache.Snap(c)
		p.mshr.Snap(c, func(c *snapshot.Codec, w *any) {
			rw, ok := (*w).(readWaiter)
			if !c.Loading() && !ok {
				c.Failf("unexpected L2 MSHR waiter type %T", *w)
				return
			}
			c.Int(&rw.sm)
			user(c, &rw.user)
			if c.Loading() {
				*w = rw
			}
		})
		p.ch.snap(c, action)
	}
	sys.Inj.Snap(c)
}

// Audit checks the memory system's internal invariants (scheduled by the
// GPU auditor): every allocated L2 MSHR line must have waiters of the
// partition's waiter type, and every queued DRAM request must be sane. It
// returns a plain error naming the failing structure; the caller wraps it
// with cycle context.
func (sys *System) Audit() error {
	for _, p := range sys.parts {
		for _, ln := range p.mshr.Lines() {
			ws := p.mshr.Waiters(ln)
			if len(ws) == 0 {
				return fmt.Errorf("partition %d: MSHR line %#x allocated with no waiters", p.id, ln)
			}
			for _, wt := range ws {
				if _, ok := wt.(readWaiter); !ok {
					return fmt.Errorf("partition %d: MSHR line %#x has a foreign waiter %T", p.id, ln, wt)
				}
			}
		}
		for _, rq := range p.ch.queue {
			if rq == nil || rq.bursts <= 0 {
				return fmt.Errorf("partition %d: malformed DRAM queue entry", p.id)
			}
		}
	}
	return nil
}
