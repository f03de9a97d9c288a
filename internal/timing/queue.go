// Package timing provides the discrete-event scheduler that coordinates
// the simulator's clock domains. SM cores tick cycle by cycle (issue-slot
// accounting needs every cycle), while the interconnect, L2 and DRAM are
// event-driven: they schedule completion actions on this queue. Times are
// in core-clock cycles; fractional times express the DRAM clock domain.
package timing

// Action is a scheduled unit of work. Pending actions are part of the
// simulator's architectural state: snapshot/restore serializes the event
// queue, so every action the simulator schedules is plain data whose
// owning package knows how to encode it (a memory event, an SM event, a
// DRAM channel's next service, or Nop). The queue never holds a closure.
type Action interface {
	Run()
}

// Nop is an Action that does nothing. DRAM writes use it as their
// completion action so the response event is always scheduled (keeping the
// event sequence identical whether or not anyone waits on the request).
type Nop struct{}

// Run does nothing.
func (Nop) Run() {}

// Event is one pending heap entry, exposed for snapshotting.
type Event struct {
	Time float64
	Seq  uint64 // FIFO tie-break for equal times
	Act  Action
}

// Queue is a time-ordered list of timed actions. The zero value is ready
// to use. Events live sorted by (time, seq) in buf[head:]; popping the
// minimum advances head (O(1)), and pushing inserts with a binary search
// plus a short memmove. The simulator keeps tens of events in flight, so
// the sorted-array form beats a binary heap: the pop path — by far the
// hotter side — does no sifting at all, and inserts shift a few hundred
// contiguous bytes instead of chasing heap levels.
type Queue struct {
	buf  []Event // sorted by (Time, Seq); live region is buf[head:]
	head int
	seq  uint64
	now  float64
}

// Now returns the time of the most recently executed event (or the last
// RunUntil horizon if greater).
func (q *Queue) Now() float64 { return q.now }

// Push schedules a to run at time t. Scheduling in the past runs the
// action at the current horizon instead (time never goes backwards).
func (q *Queue) Push(t float64, a Action) {
	if t < q.now {
		t = q.now
	}
	q.seq++
	e := Event{Time: t, Seq: q.seq, Act: a}
	// Reclaim the dead prefix once it outgrows the live region (amortized
	// O(1); the vacated tail is zeroed so actions are released for GC).
	if q.head > 32 && q.head > len(q.buf)-q.head {
		n := copy(q.buf, q.buf[q.head:])
		for i := n; i < len(q.buf); i++ {
			q.buf[i] = Event{}
		}
		q.buf = q.buf[:n]
		q.head = 0
	}
	// Upper-bound binary search by time: the new event carries the
	// largest Seq, so it sorts after every pending event with equal time,
	// which preserves the FIFO tie-break exactly.
	live := q.buf[q.head:]
	lo, hi := 0, len(live)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if live[mid].Time <= e.Time {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	pos := q.head + lo
	q.buf = append(q.buf, Event{})
	copy(q.buf[pos+1:], q.buf[pos:])
	q.buf[pos] = e
}

// RunUntil executes all events with time <= t in time order (events may
// schedule further events, which are honored if they also fall within t).
func (q *Queue) RunUntil(t float64) {
	for q.head < len(q.buf) && q.buf[q.head].Time <= t {
		e := q.buf[q.head]
		q.buf[q.head] = Event{} // release the action for GC
		q.head++
		if e.Time > q.now {
			q.now = e.Time
		}
		// Run may Push; insertion and compaction keep buf[head:] sorted,
		// and the loop re-reads head/buf each iteration.
		e.Act.Run()
	}
	if t > q.now {
		q.now = t
	}
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
}

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.buf) - q.head }

// NextTime returns the time of the earliest pending event; ok is false if
// the queue is empty.
func (q *Queue) NextTime() (t float64, ok bool) {
	if q.head == len(q.buf) {
		return 0, false
	}
	return q.buf[q.head].Time, true
}

// Snapshot returns the queue's clock, sequence counter and pending events
// sorted in firing order (time, then seq). The slice is a copy — the live
// region is already kept in firing order.
func (q *Queue) Snapshot() (now float64, seq uint64, evs []Event) {
	evs = make([]Event, q.Len())
	copy(evs, q.buf[q.head:])
	return q.now, q.seq, evs
}

// Restore replaces the queue's state with a snapshot previously produced
// by Snapshot (evs must be sorted in firing order, which is the live
// representation).
func (q *Queue) Restore(now float64, seq uint64, evs []Event) {
	q.now = now
	q.seq = seq
	q.buf = append(q.buf[:0], evs...)
	q.head = 0
}
