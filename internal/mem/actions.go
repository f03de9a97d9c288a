package mem

import (
	"github.com/caba-sim/caba/internal/compress"
	"github.com/caba-sim/caba/internal/timing"
)

// The memory system's pending work lives on the event queue as plain
// data so snapshot/restore can serialize it: one event record whose kind
// selects what runs, plus the DRAM channel itself, which queues its own
// next service. An event holds its partition for execution and is
// encoded by the partition index plus the value fields its kind uses;
// the opaque `user` payload is owned by the GPU core and round-trips
// through the caller's codec.

// eventKind selects what an event does when it runs. The numbering is
// the snapshot format's memory-action tag.
type eventKind uint8

const (
	// evArriveRead delivers a read-request packet at its partition (the
	// crossbar traversal endpoint); the L2 lookup is a second stage.
	evArriveRead eventKind = iota
	// evReadL2 is the L2 lookup stage of a read: hit responds, miss
	// allocates an MSHR entry and fetches from DRAM.
	evReadL2
	// evArriveReadRaw delivers a fault-recovery raw-read request packet.
	evArriveReadRaw
	// evReadRawL2 is the L2 lookup stage of a raw read (MSHR bypassed).
	evReadRawL2
	// evRespondRaw completes a raw DRAM read and sends the uncompressed
	// line back to the SM.
	evRespondRaw
	// evArriveWrite delivers a full-line write packet at its partition.
	evArriveWrite
	// evWriteL2 is the L2 stage of a write: insert (allocate-on-write)
	// and push out any evicted dirty lines.
	evWriteL2
	// evFillDRAM completes a DRAM read for a missing L2 line.
	evFillDRAM
	// evDeliverFill installs a filled line into L2 and wakes its MSHR
	// waiters.
	evDeliverFill
	// evWBIssue issues an evicted dirty line's DRAM write (possibly
	// delayed by the HW compressor's latency for ScopeMemory designs).
	evWBIssue
	// evRespSend sends a (possibly fault-delayed) read response across
	// the interconnect. The flit count was computed at respond time,
	// before the delay, so a metadata update during the delay cannot
	// change the packet.
	evRespSend
	// evFill delivers a response packet at its SM (the OnFill upcall).
	evFill
	// evServe frees a DRAM data bus and picks the channel's next
	// request. It is only a snapshot tag: the queued action is the
	// *Channel itself, which stays pointer-shaped so every DRAM service
	// is queued without an allocation.
	evServe
)

// plain reports whether the kind carries only a partition and a line:
// the write path, the DRAM fill and the writeback issue. Every other
// event also carries the requesting SM and its user payload.
func (k eventKind) plain() bool { return k >= evArriveWrite && k <= evWBIssue }

// event is one piece of memory-side pending work.
type event struct {
	p     *Partition
	ln    uint64
	user  any
	sm    int
	flits int32 // evRespSend only; int32 keeps the record at 48 bytes
	kind  eventKind
}

// Run performs the work the event's kind names.
func (a event) Run() {
	p, sm := a.p, a.sm
	switch a.kind {
	case evArriveRead:
		p.handleRead(sm, a.ln, a.user)
	case evReadL2:
		if p.cache.Lookup(a.ln, false) {
			p.sys.S.L2Hits++
			p.respond(sm, a.ln, a.user)
			return
		}
		p.sys.S.L2Misses++
		primary, _ := p.mshr.Add(a.ln, readWaiter{sm: sm, user: a.user})
		if !primary {
			return
		}
		p.fetch(a.ln)
	case evArriveReadRaw:
		p.handleReadRaw(sm, a.ln, a.user)
	case evReadRawL2:
		if p.cache.Lookup(a.ln, false) {
			p.sys.S.L2Hits++
			p.respondRaw(sm, a.ln, a.user)
			return
		}
		p.sys.S.L2Misses++
		p.ch.Enqueue(a.ln, false, compress.MaxBursts, p.event(evRespondRaw, sm, a.ln, a.user))
	case evRespondRaw:
		p.respondRaw(sm, a.ln, a.user)
	case evArriveWrite:
		p.handleWrite(a.ln)
	case evWriteL2:
		if p.cache.Lookup(a.ln, true) {
			p.sys.S.L2Hits++
			// Size may have changed if the line recompressed differently.
			p.writebacks(p.cache.Insert(a.ln, p.residentSize(a.ln), true))
			return
		}
		p.sys.S.L2Misses++
		p.writebacks(p.cache.Insert(a.ln, p.residentSize(a.ln), true))
	case evFillDRAM:
		p.fill(a.ln)
	case evDeliverFill:
		evs := p.cache.Insert(a.ln, p.residentSize(a.ln), false)
		p.writebacks(evs)
		for _, w := range p.mshr.Complete(a.ln) {
			wt := w.(readWaiter)
			p.respond(wt.sm, a.ln, wt.user)
		}
	case evWBIssue:
		// The burst count is computed at issue time.
		bursts := compress.MaxBursts
		if p.sys.Design.Compressing() {
			st := p.sys.Dom.State(a.ln)
			bursts = st.Bursts()
			p.sys.S.Ratio.Add(st)
		}
		p.ch.Enqueue(a.ln, true, bursts, timing.Nop{})
	case evRespSend:
		p.sys.X.FromPartition(p.id, int(a.flits), p.event(evFill, sm, a.ln, a.user))
	case evFill:
		p.sys.OnFill(sm, a.ln, a.user)
	}
}

// event builds an event of kind k at this partition on behalf of SM sm.
func (p *Partition) event(k eventKind, sm int, ln uint64, user any) event {
	return event{p: p, ln: ln, user: user, sm: sm, kind: k}
}

// Run continues FR-FCFS service: a queued channel is its own next
// service (evServe).
func (ch *Channel) Run() { ch.serveNext() }
