package core

import (
	"fmt"
	"math/bits"

	"github.com/caba-sim/caba/internal/isa"
)

// Priority is an assist warp's scheduling priority (Section 3.2.3):
// high-priority warps (decompression) are required for correctness and
// take precedence over their parent warp; low-priority warps (compression)
// run only in idle issue slots and carry no completion guarantee.
type Priority uint8

// Priorities.
const (
	PriLow Priority = iota
	PriHigh
)

// RoutineID indexes the Assist Warp Store (the paper's SR.ID).
type RoutineID uint16

// Routine is one assist-warp subroutine: its code, static priority and
// static lane mask (Section 3.4: the active mask provides flexibility when
// fewer than 32 lanes are needed).
type Routine struct {
	ID         RoutineID
	Name       string
	Prog       *isa.Program
	Priority   Priority
	ActiveMask uint32
}

// Store is the Assist Warp Store (AWS): on-chip storage preloaded with
// subroutine code before the application runs, indexed by SR.ID (and
// walked by Inst.ID as the AWC deploys instructions).
type Store struct {
	routines map[RoutineID]*Routine
	// TotalInstrs approximates the AWS's storage requirement.
	TotalInstrs int
}

// NewStore returns an empty AWS.
func NewStore() *Store {
	return &Store{routines: make(map[RoutineID]*Routine)}
}

// Preload installs a routine; duplicate IDs are an error.
func (s *Store) Preload(r *Routine) error {
	if r.Prog == nil || len(r.Prog.Code) == 0 {
		return fmt.Errorf("core: routine %q has no code", r.Name)
	}
	if _, dup := s.routines[r.ID]; dup {
		return fmt.Errorf("core: duplicate routine id %d (%q)", r.ID, r.Name)
	}
	s.routines[r.ID] = r
	s.TotalInstrs += len(r.Prog.Code)
	return nil
}

// Get looks up a routine by ID.
func (s *Store) Get(id RoutineID) (*Routine, bool) {
	r, ok := s.routines[id]
	return r, ok
}

// MustGet looks up a routine that is known to be preloaded.
func (s *Store) MustGet(id RoutineID) *Routine {
	r, ok := s.routines[id]
	if !ok {
		panic(fmt.Sprintf("core: routine %d not preloaded", id))
	}
	return r
}

// Len returns the number of preloaded routines.
func (s *Store) Len() int { return len(s.routines) }

// MaxWarps is the width of the AWT's bitmasks: an AWT holds at most
// MaxWarps entries, and parent warp slots are numbered below it
// (config.Validate caps MaxWarpsPerSM at this value).
const MaxWarps = 64

// windowSlots is the length of the utilization monitor's shift register.
const windowSlots = 64

// Entry is one Assist Warp Table (AWT) entry: a triggered assist warp
// coupled to its parent warp, tracking the next instruction to deploy
// (Inst.ID) via its execution context, plus live-in/live-out bookkeeping.
type Entry struct {
	Routine *Routine
	// Pri mirrors Routine.Priority so the controller reads one byte here
	// instead of chasing the Routine pointer.
	Pri  Priority
	Warp int // parent warp index within the SM
	Exec *Exec

	// Staged counts instructions deployed into the AWB but not yet issued.
	// The controller owns it: Tick raises it, Consumed lowers it.
	Staged int
	// Outstanding counts issued instructions not yet written back.
	Outstanding int

	// SB is the assist warp's issue scoreboard over its reserved register
	// slice; embedding it here avoids a per-entry side-table.
	SB RegMask

	// User is the owner's context (e.g. the pending load this unblocks).
	// The owner decides what a retired entry's result feeds from it and
	// the routine, so an entry is plain data a snapshot can carry.
	User any

	// pos is the entry's AWT position: its index in Controller.entries
	// and its bit in the controller's masks (-1 once retired).
	pos int
}

// Done reports whether the assist warp has finished executing.
func (e *Entry) Done() bool {
	return e.Exec.Done && e.Staged == 0 && e.Outstanding == 0
}

// Controller is the Assist Warp Controller (AWC): it triggers assist warps
// on events, tracks them in the AWT, deploys their instructions
// round-robin into the Assist Warp Buffer, and throttles low-priority
// deployment by monitoring pipeline utilization (Section 3.4, Dynamic
// Feedback and Throttling).
//
// Like the hardware tables it models, the AWT is fixed-width: entries sit
// at positions 0..n-1 in trigger order, and per-priority 64-bit masks
// over those positions say which entries can take a deployed instruction
// and which have one staged, so deployment and the issue stage's AWB
// scan visit only the entries that matter.
type Controller struct {
	Store *Store

	// MaxEntries bounds the AWT (one slot per hardware warp context, so
	// every parent warp can host an assist warp); at most MaxWarps.
	MaxEntries int
	// DeployBW is the maximum instructions staged per cycle (decode
	// bandwidth shared with the front-end).
	DeployBW int
	// StagedCap is the per-entry AWB staging capacity. Set it before the
	// first Trigger: the ready masks are kept against it.
	StagedCap int

	// Low-priority AWB partition: the dedicated two-entry IB partition.
	LowCap int

	entries []*Entry
	rr      int

	// ready[p] has bit i set when entries[i] has priority p and Tick may
	// deploy into it (Staged < StagedCap, exec not done); staged[p] has
	// bit i set when entries[i] has priority p and Staged > 0. Staged and
	// Exec.Done change only through Trigger, Tick, Consumed and Retire,
	// which keep both exact.
	ready, staged [2]uint64

	// highByWarp is the high-priority assist warp attached to each parent
	// warp slot (at most one: only a single instance of each routine per
	// parent, Section 3.2.2).
	highByWarp [MaxWarps]*Entry
	// nLow counts the low-priority partition's entries.
	nLow int

	// Utilization monitor: a shift register of the last windowSlots
	// issue slots, bit windowPos being the next to overwrite; a set bit
	// is a slot that issued.
	window    uint64
	windowPos int
}

// NewController builds an AWC with maxEntries AWT slots (at most
// MaxWarps).
func NewController(store *Store, maxEntries int) *Controller {
	if maxEntries > MaxWarps {
		panic(fmt.Sprintf("core: %d AWT entries exceed the %d-bit entry masks", maxEntries, MaxWarps))
	}
	return &Controller{
		Store:      store,
		MaxEntries: maxEntries,
		DeployBW:   4,
		StagedCap:  4,
		LowCap:     2,
	}
}

// CanTrigger reports whether a new assist warp of the given priority can
// be accepted for parent warp `warp`.
func (c *Controller) CanTrigger(pri Priority, warp int) bool {
	if len(c.entries) >= c.MaxEntries {
		return false
	}
	if pri == PriHigh {
		return c.highByWarp[warp] == nil
	}
	return c.nLow < c.LowCap
}

// Trigger creates an AWT entry running routine rt on behalf of warp. exec
// must be freshly built for the routine (registers, staging buffers and
// live-ins populated by the caller, which models the MOVE instructions
// that copy live-in data, Section 3.4). Returns nil if the AWT or the
// relevant AWB partition is full.
func (c *Controller) Trigger(rt *Routine, warp int, exec *Exec, user any) *Entry {
	if !c.CanTrigger(rt.Priority, warp) {
		return nil
	}
	e := &Entry{Routine: rt, Pri: rt.Priority, Warp: warp, Exec: exec, User: user}
	c.add(e)
	return e
}

// add appends e at the next AWT position.
func (c *Controller) add(e *Entry) {
	e.pos = len(c.entries)
	c.entries = append(c.entries, e)
	if e.Pri == PriHigh {
		c.highByWarp[e.Warp] = e
	} else {
		c.nLow++
	}
	c.refresh(e)
}

// refresh recomputes e's ready and staged bits from its state.
func (c *Controller) refresh(e *Entry) {
	bit := uint64(1) << e.pos
	c.ready[e.Pri] &^= bit
	c.staged[e.Pri] &^= bit
	if e.Staged < c.StagedCap && !e.Exec.Done {
		c.ready[e.Pri] |= bit
	}
	if e.Staged > 0 {
		c.staged[e.Pri] |= bit
	}
}

// NoteIssueSlot feeds the utilization monitor: busy is true when the slot
// issued an instruction.
func (c *Controller) NoteIssueSlot(busy bool) {
	bit := uint64(1) << c.windowPos
	if busy {
		c.window |= bit
	} else {
		c.window &^= bit
	}
	c.windowPos = (c.windowPos + 1) % windowSlots
}

// NoteIdleSlots advances the utilization monitor by n idle slots, exactly
// as if NoteIssueSlot(false) had been called n times: it clears the n
// bits from windowPos on (all of them once n covers the window). The
// SM's quiescent tick uses it to credit a whole cycle's idle slots at
// once.
func (c *Controller) NoteIdleSlots(n int) {
	if n <= 0 {
		return
	}
	if n >= windowSlots {
		c.window = 0
	} else {
		c.window &^= bits.RotateLeft64(1<<n-1, c.windowPos)
	}
	c.windowPos = (c.windowPos + n) % windowSlots
}

// Idle reports whether the AWT holds no assist warps (the controller's
// Tick and issue paths are guaranteed no-ops).
func (c *Controller) Idle() bool { return len(c.entries) == 0 }

// Full reports whether the AWT has no free entry slot (CanTrigger is
// false for every priority and warp).
func (c *Controller) Full() bool { return len(c.entries) >= c.MaxEntries }

// Utilization returns the fraction of recent issue slots that were busy.
func (c *Controller) Utilization() float64 {
	return float64(bits.OnesCount64(c.window)) / windowSlots
}

// LowPriorityThrottled reports whether low-priority deployment should be
// withheld because the pipelines are already saturated.
func (c *Controller) LowPriorityThrottled() bool {
	return c.Utilization() > 0.90
}

// Tick deploys up to DeployBW instructions into the AWB, round-robin over
// AWT entries, respecting per-entry staging capacity and the low-priority
// throttle. High-priority (blocking, correctness-critical) assist warps
// consume deploy bandwidth first; low-priority warps use what is left.
// Each pass starts at AWT position rr % n and visits every entry at most
// once, and rr advances by one per tick.
func (c *Controller) Tick() {
	n := len(c.entries)
	if n == 0 {
		return
	}
	start := c.rr % n
	credits := c.deploy(PriHigh, start, c.DeployBW)
	if !c.LowPriorityThrottled() {
		c.deploy(PriLow, start, credits)
	}
	c.rr = (c.rr + 1) % n
}

// deploy stages one instruction into each ready entry of priority pri,
// in position order from start and wrapping around, until credits run
// out; it returns the credits left. Rotating the mask right by start
// lists positions start..63 and then 0..start-1 in ascending bit order.
func (c *Controller) deploy(pri Priority, start, credits int) int {
	for m := bits.RotateLeft64(c.ready[pri], -start); m != 0 && credits > 0; m &= m - 1 {
		i := (bits.TrailingZeros64(m) + start) % MaxWarps
		e := c.entries[i]
		e.Staged++
		credits--
		c.staged[pri] |= 1 << i
		if e.Staged >= c.StagedCap {
			c.ready[pri] &^= 1 << i
		}
	}
	return credits
}

// Consumed records that an SM issued one of e's staged instructions: it
// leaves the AWB, and once the routine has executed its last instruction
// the slots staged past its end are discarded.
func (c *Controller) Consumed(e *Entry) {
	e.Staged--
	if e.Exec.Done {
		e.Staged = 0
	}
	c.refresh(e)
}

// StagedMask returns the AWT positions of priority pri with an
// instruction in the AWB, bit i standing for Entries()[i].
func (c *Controller) StagedMask(pri Priority) uint64 { return c.staged[pri] }

// HighFor returns the high-priority assist warp attached to warp, if any.
func (c *Controller) HighFor(warp int) *Entry { return c.highByWarp[warp] }

// Entries returns all live AWT entries in position (trigger) order.
func (c *Controller) Entries() []*Entry { return c.entries }

// Retire removes a finished entry from the AWT and AWB partitions. Later
// entries move up one position, and the masks close the gap. What the
// result feeds is the owner's business: it reads the retired entry's User
// and Exec after Retire returns.
func (c *Controller) Retire(e *Entry) {
	if i := e.pos; i >= 0 && i < len(c.entries) && c.entries[i] == e {
		copy(c.entries[i:], c.entries[i+1:])
		c.entries[len(c.entries)-1] = nil
		c.entries = c.entries[:len(c.entries)-1]
		for _, x := range c.entries[i:] {
			x.pos--
		}
		for p := range c.ready {
			c.ready[p] = dropBit(c.ready[p], i)
			c.staged[p] = dropBit(c.staged[p], i)
		}
		if e.Pri == PriHigh {
			c.highByWarp[e.Warp] = nil
		} else {
			c.nLow--
		}
		e.pos = -1
	}
}

// dropBit deletes bit i from m, shifting the higher bits down one.
func dropBit(m uint64, i int) uint64 {
	low := uint64(1)<<i - 1
	return m&low | m>>1&^low
}
