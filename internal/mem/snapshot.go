package mem

import (
	"fmt"
	"sort"

	"github.com/caba-sim/caba/internal/compress"
	"github.com/caba-sim/caba/internal/snapshot"
	"github.com/caba-sim/caba/internal/timing"
)

// Serialization of the memory hierarchy: caches, MSHRs, backing memory,
// compression metadata, DRAM channel/bank timing and the crossbar links.
// Opaque GPU-owned payloads (MSHR waiters' user pointers, DRAM completion
// actions) round-trip through caller-supplied codecs; everything else is
// encoded by value. Structural dimensions (set counts, bank counts) are
// written and validated on load so a blob can never be restored into a
// differently-shaped hierarchy.

// maxMemSnapLen bounds decoded collection lengths in this package.
const maxMemSnapLen = 1 << 24

func memErrf(msg string) error { return &snapshot.FormatError{Off: -1, Msg: msg} }

// --- Cache ---

// Save serializes tags, metadata and counters. Geometry is validated on
// load, not restored: the owner rebuilds the cache from configuration.
func (c *Cache) Save(w *snapshot.Writer) {
	w.Int(c.numSets)
	w.Int(len(c.sets[0]))
	w.U64(c.tick)
	w.U64(c.Hits)
	w.U64(c.Misses)
	w.U64(c.Evictions)
	for _, set := range c.sets {
		for i := range set {
			w.U64(set[i].lineAddr)
			w.Bool(set[i].valid)
			w.Bool(set[i].dirty)
			w.Int(set[i].size)
			w.U64(set[i].lru)
		}
	}
}

// Load restores a cache previously serialized by Save into an
// identically-configured cache.
func (c *Cache) Load(r *snapshot.Reader) error {
	if n := r.Int(); n != c.numSets {
		return memErrf("cache set count mismatch")
	}
	if n := r.Int(); n != len(c.sets[0]) {
		return memErrf("cache associativity mismatch")
	}
	c.tick = r.U64()
	c.Hits = r.U64()
	c.Misses = r.U64()
	c.Evictions = r.U64()
	for _, set := range c.sets {
		for i := range set {
			set[i].lineAddr = r.U64()
			set[i].valid = r.Bool()
			set[i].dirty = r.Bool()
			set[i].size = r.Int()
			set[i].lru = r.U64()
		}
	}
	return r.Err()
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

// Save serializes outstanding entries; encWaiter encodes each opaque
// waiter.
func (m *MSHR) Save(w *snapshot.Writer, encWaiter func(*snapshot.Writer, any) error) error {
	lines := m.Lines()
	w.Len(len(lines))
	for _, ln := range lines {
		w.U64(ln)
		ws := m.entries[ln]
		w.Len(len(ws))
		for _, wt := range ws {
			if err := encWaiter(w, wt); err != nil {
				return err
			}
		}
	}
	return nil
}

// Load restores outstanding entries; decWaiter decodes each waiter.
func (m *MSHR) Load(r *snapshot.Reader, decWaiter func(*snapshot.Reader) (any, error)) error {
	clear(m.entries)
	n := r.Len(maxMemSnapLen)
	for i := 0; i < n; i++ {
		ln := r.U64()
		nw := r.Len(maxMemSnapLen)
		if r.Err() != nil {
			return r.Err()
		}
		ws := make([]any, 0, nw)
		for j := 0; j < nw; j++ {
			wt, err := decWaiter(r)
			if err != nil {
				return err
			}
			ws = append(ws, wt)
		}
		if _, dup := m.entries[ln]; dup {
			return memErrf("duplicate MSHR line in snapshot")
		}
		m.entries[ln] = ws
	}
	return r.Err()
}

// --- Memory ---

// Save serializes the backing store (pages in ascending order). Workload
// data mutates during a run, so the full image is part of a checkpoint.
func (m *Memory) Save(w *snapshot.Writer) {
	pns := make([]uint64, 0, len(m.pages))
	for pn := range m.pages {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	w.Len(len(pns))
	for _, pn := range pns {
		w.U64(pn)
		w.Bytes(m.pages[pn][:])
	}
}

// Load restores the backing store.
func (m *Memory) Load(r *snapshot.Reader) error {
	clear(m.pages)
	n := r.Len(maxMemSnapLen)
	for i := 0; i < n; i++ {
		pn := r.U64()
		b := r.Bytes(pageSize)
		if r.Err() != nil {
			return r.Err()
		}
		if len(b) != pageSize {
			return memErrf("short memory page")
		}
		p := new([pageSize]byte)
		copy(p[:], b)
		m.pages[pn] = p
	}
	return r.Err()
}

// --- Domain ---

// SaveCompressed encodes one compression state by value (the domain's
// per-line states here, the GPU's queued decompression triggers).
func SaveCompressed(w *snapshot.Writer, c compress.Compressed) {
	w.U64(uint64(c.Alg))
	w.U8(c.Enc)
	w.Bytes(c.Data)
}

// LoadCompressed decodes one compression state.
func LoadCompressed(r *snapshot.Reader) compress.Compressed {
	return compress.Compressed{
		Alg:  compress.AlgID(r.U64()),
		Enc:  r.U8(),
		Data: append([]byte(nil), r.Bytes(maxMemSnapLen)...),
	}
}

// Save serializes the per-line compression states in ascending line
// order.
func (d *Domain) Save(w *snapshot.Writer) {
	lns := make([]uint64, 0, len(d.lines))
	for ln := range d.lines {
		lns = append(lns, ln)
	}
	sort.Slice(lns, func(i, j int) bool { return lns[i] < lns[j] })
	w.Len(len(lns))
	for _, ln := range lns {
		w.U64(ln)
		SaveCompressed(w, d.lines[ln])
	}
}

// Load restores the per-line compression states.
func (d *Domain) Load(r *snapshot.Reader) error {
	clear(d.lines)
	n := r.Len(maxMemSnapLen)
	for i := 0; i < n; i++ {
		ln := r.U64()
		d.lines[ln] = LoadCompressed(r)
		if r.Err() != nil {
			return r.Err()
		}
	}
	return r.Err()
}

// --- MD cache / DRAM channel ---

// save serializes the metadata cache.
func (m *MDCache) save(w *snapshot.Writer) {
	m.c.Save(w)
	w.U64(m.Hits)
	w.U64(m.Misses)
}

// load restores the metadata cache.
func (m *MDCache) load(r *snapshot.Reader) error {
	if err := m.c.Load(r); err != nil {
		return err
	}
	m.Hits = r.U64()
	m.Misses = r.U64()
	return r.Err()
}

// save serializes the channel's timing state and request queue. encAction
// encodes each request's completion action.
func (ch *Channel) save(w *snapshot.Writer, encAction func(*snapshot.Writer, timing.Action) error) error {
	w.F64(ch.busNextFree)
	w.Bool(ch.busy)
	w.Len(len(ch.banks))
	for i := range ch.banks {
		w.I64(ch.banks[i].openRow)
		w.F64(ch.banks[i].nextReady)
	}
	w.Len(len(ch.queue))
	for _, rq := range ch.queue {
		w.U64(rq.lineAddr)
		w.Bool(rq.write)
		w.Int(rq.bursts)
		w.F64(rq.arrival)
		w.Bool(rq.mdMiss)
		if err := encAction(w, rq.done); err != nil {
			return err
		}
	}
	if ch.md != nil {
		w.Bool(true)
		ch.md.save(w)
	} else {
		w.Bool(false)
	}
	return nil
}

// load restores the channel.
func (ch *Channel) load(r *snapshot.Reader, decAction func(*snapshot.Reader) (timing.Action, error)) error {
	ch.busNextFree = r.F64()
	ch.busy = r.Bool()
	if n := r.Len(maxMemSnapLen); n != len(ch.banks) {
		if r.Err() != nil {
			return r.Err()
		}
		return memErrf("DRAM bank count mismatch")
	}
	for i := range ch.banks {
		ch.banks[i].openRow = r.I64()
		ch.banks[i].nextReady = r.F64()
	}
	nq := r.Len(maxMemSnapLen)
	if r.Err() != nil {
		return r.Err()
	}
	ch.queue = ch.queue[:0]
	for i := 0; i < nq; i++ {
		rq := &dramReq{
			lineAddr: r.U64(),
			write:    r.Bool(),
			bursts:   r.Int(),
			arrival:  r.F64(),
			mdMiss:   r.Bool(),
		}
		done, err := decAction(r)
		if err != nil {
			return err
		}
		rq.done = done
		ch.queue = append(ch.queue, rq)
	}
	hasMD := r.Bool()
	if r.Err() != nil {
		return r.Err()
	}
	if hasMD != (ch.md != nil) {
		return memErrf("MD cache presence mismatch")
	}
	if hasMD {
		return ch.md.load(r)
	}
	return nil
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

// EncodeAction serializes one of this package's event-queue actions: the
// kind tag, the partition (or, for a channel's next service, the channel)
// index, then the fields the kind carries. encUser encodes opaque user
// payloads. Unknown action types return an error (the caller owns the
// top-level action dispatch).
func (sys *System) EncodeAction(w *snapshot.Writer, act timing.Action, encUser func(*snapshot.Writer, any) error) error {
	switch a := act.(type) {
	case *Channel:
		w.U8(uint8(evServe))
		w.Int(a.id)
		return nil
	case event:
		w.U8(uint8(a.kind))
		w.Int(a.p.id)
		if a.kind.plain() {
			w.U64(a.ln)
			return nil
		}
		w.Int(a.sm)
		w.U64(a.ln)
		if a.kind == evRespSend {
			w.Int(int(a.flits))
		}
		return encUser(w, a.user)
	default:
		return memErrf("not a memory action")
	}
}

// DecodeAction mirrors EncodeAction.
func (sys *System) DecodeAction(r *snapshot.Reader, decUser func(*snapshot.Reader) (any, error)) (timing.Action, error) {
	k := eventKind(r.U8())
	if r.Err() != nil {
		return nil, r.Err()
	}
	if k > evServe {
		return nil, memErrf("unknown memory action kind")
	}
	i := r.Int()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if i < 0 || i >= len(sys.parts) {
		return nil, memErrf("partition index out of range")
	}
	p := sys.parts[i]
	switch {
	case k == evServe:
		return p.ch, nil
	case k.plain():
		return event{p: p, ln: r.U64(), kind: k}, r.Err()
	}
	sm := r.Int()
	a := p.event(k, sm, r.U64(), nil)
	if k == evRespSend {
		a.flits = int32(r.Int())
	}
	var err error
	if a.user, err = decUser(r); err != nil {
		return nil, err
	}
	return a, nil
}

// SaveState serializes the crossbar links, every partition (L2 cache,
// MSHR, channel) and the fault-injector streams. encAction/encUser encode
// DRAM completion actions and opaque waiter payloads.
func (sys *System) SaveState(w *snapshot.Writer,
	encAction func(*snapshot.Writer, timing.Action) error,
	encUser func(*snapshot.Writer, any) error) error {
	w.Len(len(sys.X.reqIn))
	for _, v := range sys.X.reqIn {
		w.F64(v)
	}
	for _, v := range sys.X.respOut {
		w.F64(v)
	}
	w.Len(len(sys.parts))
	encWaiter := func(w *snapshot.Writer, wt any) error {
		rw, ok := wt.(readWaiter)
		if !ok {
			return memErrf("unexpected L2 MSHR waiter type")
		}
		w.Int(rw.sm)
		return encUser(w, rw.user)
	}
	for _, p := range sys.parts {
		p.cache.Save(w)
		if err := p.mshr.Save(w, encWaiter); err != nil {
			return err
		}
		if err := p.ch.save(w, encAction); err != nil {
			return err
		}
	}
	streams := sys.Inj.SaveStreams()
	w.Len(len(streams))
	for _, s := range streams {
		w.U64(s)
	}
	return nil
}

// LoadState mirrors SaveState.
func (sys *System) LoadState(r *snapshot.Reader,
	decAction func(*snapshot.Reader) (timing.Action, error),
	decUser func(*snapshot.Reader) (any, error)) error {
	if n := r.Len(maxMemSnapLen); n != len(sys.X.reqIn) {
		if r.Err() != nil {
			return r.Err()
		}
		return memErrf("crossbar width mismatch")
	}
	for i := range sys.X.reqIn {
		sys.X.reqIn[i] = r.F64()
	}
	for i := range sys.X.respOut {
		sys.X.respOut[i] = r.F64()
	}
	if n := r.Len(maxMemSnapLen); n != len(sys.parts) {
		if r.Err() != nil {
			return r.Err()
		}
		return memErrf("partition count mismatch")
	}
	decWaiter := func(r *snapshot.Reader) (any, error) {
		sm := r.Int()
		u, err := decUser(r)
		if err != nil {
			return nil, err
		}
		return readWaiter{sm: sm, user: u}, nil
	}
	for _, p := range sys.parts {
		if err := p.cache.Load(r); err != nil {
			return err
		}
		if err := p.mshr.Load(r, decWaiter); err != nil {
			return err
		}
		if err := p.ch.load(r, decAction); err != nil {
			return err
		}
	}
	ns := r.Len(maxMemSnapLen)
	if r.Err() != nil {
		return r.Err()
	}
	streams := make([]uint64, ns)
	for i := range streams {
		streams[i] = r.U64()
	}
	if r.Err() != nil {
		return r.Err()
	}
	return sys.Inj.LoadStreams(streams)
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
