package core

import (
	"fmt"
	"testing"

	"github.com/caba-sim/caba/internal/snapshot"
)

// refAWC is the reference model for the assist-warp controller: the
// deploy scan and utilization window as they were before the AWT became
// bitmask tables — an O(n) modular walk over the entries once per
// priority, and a [64]bool ring with a running busy count.
// FuzzControllerDeploy drives it and a Controller in lockstep.
type refAWC struct {
	maxEntries, deployBW, stagedCap, lowCap int

	entries []*refEntry // AWT order
	low     []*refEntry // low-priority partition, trigger order
	high    map[int]*refEntry
	rr      int

	window     [64]bool
	windowPos  int
	windowBusy int
}

// refEntry is one model AWT entry; real is its twin in the Controller.
type refEntry struct {
	pri    Priority
	warp   int
	staged int
	done   bool // the routine executed its last instruction
	real   *Entry
}

func (m *refAWC) canTrigger(pri Priority, warp int) bool {
	if len(m.entries) >= m.maxEntries {
		return false
	}
	if pri == PriHigh {
		return m.high[warp] == nil
	}
	return len(m.low) < m.lowCap
}

func (m *refAWC) trigger(pri Priority, warp int, done bool) *refEntry {
	if !m.canTrigger(pri, warp) {
		return nil
	}
	e := &refEntry{pri: pri, warp: warp, done: done}
	m.entries = append(m.entries, e)
	if pri == PriHigh {
		m.high[warp] = e
	} else {
		m.low = append(m.low, e)
	}
	return e
}

func (m *refAWC) throttled() bool { return float64(m.windowBusy)/64 > 0.90 }

func (m *refAWC) tick() {
	n := len(m.entries)
	if n == 0 {
		return
	}
	credits := m.deployBW
	deploy := func(pri Priority) {
		for scanned := 0; scanned < n && credits > 0; scanned++ {
			e := m.entries[(m.rr+scanned)%n]
			if e.pri != pri || e.staged >= m.stagedCap || e.done {
				continue
			}
			e.staged++
			credits--
		}
	}
	deploy(PriHigh)
	if !m.throttled() {
		deploy(PriLow)
	}
	m.rr = (m.rr + 1) % n
}

func (m *refAWC) consume(e *refEntry, finish bool) {
	e.done = e.done || finish
	e.staged--
	if e.done {
		e.staged = 0
	}
}

func (m *refAWC) retire(e *refEntry) {
	remove := func(list []*refEntry) []*refEntry {
		for i, x := range list {
			if x == e {
				return append(list[:i], list[i+1:]...)
			}
		}
		return list
	}
	m.entries = remove(m.entries)
	m.low = remove(m.low)
	if m.high[e.warp] == e {
		delete(m.high, e.warp)
	}
}

func (m *refAWC) noteIssueSlot(busy bool) {
	if m.window[m.windowPos] {
		m.windowBusy--
	}
	m.window[m.windowPos] = busy
	if busy {
		m.windowBusy++
	}
	m.windowPos = (m.windowPos + 1) % len(m.window)
}

// noteIdleSlots is the definition NoteIdleSlots must match: n single
// idle slots.
func (m *refAWC) noteIdleSlots(n int) {
	for i := 0; i < n; i++ {
		m.noteIssueSlot(false)
	}
}

// diffAWC compares the controller against the model, including the
// controller's internal masks against the entry state they summarize.
func diffAWC(c *Controller, m *refAWC) string {
	if len(c.entries) != len(m.entries) {
		return fmt.Sprintf("AWT holds %d entries, model %d", len(c.entries), len(m.entries))
	}
	var ready, staged [2]uint64
	var low []*Entry
	for i, e := range c.Entries() {
		r := m.entries[i]
		if e != r.real {
			return fmt.Sprintf("AWT position %d holds a different entry than the model", i)
		}
		if e.pos != i {
			return fmt.Sprintf("entry at position %d records position %d", i, e.pos)
		}
		if e.Staged != r.staged || e.Pri != r.pri || e.Warp != r.warp || e.Exec.Done != r.done {
			return fmt.Sprintf("entry %d: staged %d pri %d warp %d done %v, model staged %d pri %d warp %d done %v",
				i, e.Staged, e.Pri, e.Warp, e.Exec.Done, r.staged, r.pri, r.warp, r.done)
		}
		if e.Staged < c.StagedCap && !e.Exec.Done {
			ready[e.Pri] |= 1 << i
		}
		if e.Staged > 0 {
			staged[e.Pri] |= 1 << i
		}
		if e.Pri == PriLow {
			low = append(low, e)
		}
	}
	if ready != c.ready || staged != c.staged {
		return fmt.Sprintf("masks ready %#x staged %#x, entries imply ready %#x staged %#x", c.ready, c.staged, ready, staged)
	}
	if len(low) != len(m.low) || c.nLow != len(m.low) {
		return fmt.Sprintf("low partition holds %d (count %d), model %d", len(low), c.nLow, len(m.low))
	}
	for i := range low {
		if low[i] != m.low[i].real {
			return fmt.Sprintf("low partition order differs at %d", i)
		}
	}
	for w := 0; w < MaxWarps; w++ {
		var want *Entry
		if r := m.high[w]; r != nil {
			want = r.real
		}
		if c.HighFor(w) != want {
			return fmt.Sprintf("HighFor(%d) differs from the model", w)
		}
	}
	if c.rr != m.rr {
		return fmt.Sprintf("rr %d, model rr %d", c.rr, m.rr)
	}
	for i, b := range m.window {
		if (c.window>>i&1 != 0) != b {
			return fmt.Sprintf("window slot %d differs from the model", i)
		}
	}
	if c.windowPos != m.windowPos || c.Utilization() != float64(m.windowBusy)/64 || c.LowPriorityThrottled() != m.throttled() {
		return fmt.Sprintf("window pos %d util %v, model pos %d util %v", c.windowPos, c.Utilization(), m.windowPos, float64(m.windowBusy)/64)
	}
	return ""
}

// FuzzControllerDeploy checks the bitmask AWT against the reference
// model over random operation sequences: triggers of either priority,
// ticks, consumption with and without the routine finishing, retirement
// at the head, middle and tail, issue-slot and bulk idle-slot notes, and
// snapshot round trips (Controller.Snap). After every step the two must
// agree on every entry's Staged, the AWT and low-partition order,
// HighFor, rr and the utilization window.
func FuzzControllerDeploy(f *testing.F) {
	// Op bytes come in (op, arg) pairs; see the switch below.
	f.Add(uint8(4), uint8(4), uint8(47), []byte{0, 1, 0, 2, 1, 3, 2, 0, 2, 0, 3, 0x40, 2, 0, 3, 0, 4, 0})
	// One credit per tick over three ready entries: rr decides each pick.
	f.Add(uint8(1), uint8(4), uint8(7), []byte{0, 0, 0, 1, 0, 2, 2, 0, 2, 0, 2, 0, 4, 0, 2, 0, 2, 0})
	// DeployBW above the number of live entries.
	f.Add(uint8(8), uint8(2), uint8(3), []byte{0, 0, 1, 5, 2, 0, 2, 0, 2, 0, 3, 0x41, 4, 1, 2, 0, 7, 0, 2, 0})
	// Idle-slot bursts of 64 and more, around a saturated window.
	f.Add(uint8(4), uint8(4), uint8(15), []byte{5, 1, 5, 1, 5, 1, 6, 64, 5, 1, 6, 200, 6, 63, 1, 9, 2, 0, 6, 130, 7, 0, 2, 0})
	f.Add(uint8(1), uint8(6), uint8(63), []byte{0, 0x81, 0, 0xC7, 1, 2, 2, 0, 2, 0, 6, 65, 4, 2, 2, 0, 7, 0, 3, 0x40, 2, 0})
	f.Fuzz(func(t *testing.T, deployBW, stagedCap, maxEntries uint8, ops []byte) {
		hi, lo := testRoutinePair()
		store := NewStore()
		store.Preload(hi)
		store.Preload(lo)
		newCtl := func() *Controller {
			c := NewController(store, int(maxEntries)%MaxWarps+1)
			c.DeployBW = int(deployBW % 9)
			c.StagedCap = int(stagedCap%6) + 1
			return c
		}
		c := newCtl()
		m := &refAWC{maxEntries: c.MaxEntries, deployBW: c.DeployBW, stagedCap: c.StagedCap,
			lowCap: c.LowCap, high: map[int]*refEntry{}}
		pick := func(arg byte) int { // head, middle or tail of the AWT
			n := len(m.entries)
			return [3]int{0, n / 2, n - 1}[int(arg)%3]
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%8, ops[i+1]
			switch op {
			case 0, 1: // trigger; arg's high bit widens the warp range
				pri, rt := PriHigh, hi
				if op == 1 {
					pri, rt = PriLow, lo
				}
				warp := int(arg) % 8
				if arg&0x80 != 0 {
					warp = int(arg) % MaxWarps
				}
				done := arg&0x40 != 0 // a routine with no active lane
				mask := rt.ActiveMask
				if done {
					mask = 0
				}
				r := m.trigger(pri, warp, done)
				e := c.Trigger(rt, warp, NewExec(rt.Prog, mask), nil)
				if (r == nil) != (e == nil) {
					t.Fatalf("op %d: trigger accepted by controller %v, by model %v", i/2, e != nil, r != nil)
				}
				if r != nil {
					r.real = e
				}
			case 2:
				m.tick()
				c.Tick()
			case 3: // consume a staged instruction; arg&0x40 finishes the routine
				var cands []*refEntry
				for _, r := range m.entries {
					if r.staged > 0 {
						cands = append(cands, r)
					}
				}
				if len(cands) == 0 {
					continue
				}
				r := cands[int(arg&0x3F)%len(cands)]
				finish := arg&0x40 != 0
				m.consume(r, finish)
				if finish {
					r.real.Exec.Done = true
				}
				c.Consumed(r.real)
			case 4:
				if len(m.entries) == 0 {
					continue
				}
				r := m.entries[pick(arg)]
				m.retire(r)
				c.Retire(r.real)
			case 5:
				m.noteIssueSlot(arg&1 != 0)
				c.NoteIssueSlot(arg&1 != 0)
			case 6:
				n := int(arg) % 201
				m.noteIdleSlots(n)
				c.NoteIdleSlots(n)
			case 7:
				enc := snapshot.Encoder()
				if c.Snap(enc, func(*snapshot.Codec, *Entry) {}); enc.Err() != nil {
					t.Fatal(enc.Err())
				}
				c = newCtl()
				dec := snapshot.Decoder(enc.Payload())
				if c.Snap(dec, func(*snapshot.Codec, *Entry) {}); dec.Err() != nil {
					t.Fatalf("op %d: reloading a saved controller: %v", i/2, dec.Err())
				}
				for j, e := range c.Entries() {
					if j < len(m.entries) {
						m.entries[j].real = e
					}
				}
			}
			if d := diffAWC(c, m); d != "" {
				t.Fatalf("op %d (%d, %#x): %s", i/2, op, arg, d)
			}
		}
	})
}

// TestNoteIdleSlotsMatchesSingleSlots pins the rotate-and-mask bulk
// update against n single idle slots from every window position.
func TestNoteIdleSlotsMatchesSingleSlots(t *testing.T) {
	for pos := 0; pos < windowSlots; pos++ {
		for n := 0; n <= 2*windowSlots+1; n++ {
			bulk := &Controller{window: 0xA5C3_F00F_1234_8001 ^ uint64(pos)*0x9E37, windowPos: pos}
			single := *bulk
			bulk.NoteIdleSlots(n)
			for i := 0; i < n; i++ {
				single.NoteIssueSlot(false)
			}
			if bulk.window != single.window || bulk.windowPos != single.windowPos {
				t.Fatalf("pos %d n %d: bulk %#x@%d, single %#x@%d", pos, n,
					bulk.window, bulk.windowPos, single.window, single.windowPos)
			}
		}
	}
}
