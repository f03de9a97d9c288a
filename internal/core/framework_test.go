package core

import (
	"errors"
	"testing"

	"github.com/caba-sim/caba/internal/isa"
	"github.com/caba-sim/caba/internal/snapshot"
)

func testRoutinePair() (hi, lo *Routine) {
	prog := isa.MustAssemble("r", `
  movi r0, 1
  movi r0, 2
  movi r0, 3
  exit`)
	hi = &Routine{ID: 100, Name: "hi", Prog: prog, Priority: PriHigh, ActiveMask: FullMask}
	lo = &Routine{ID: 101, Name: "lo", Prog: prog, Priority: PriLow, ActiveMask: FullMask}
	return
}

func TestStorePreloadAndDuplicates(t *testing.T) {
	s := NewStore()
	hi, _ := testRoutinePair()
	if err := s.Preload(hi); err != nil {
		t.Fatal(err)
	}
	if err := s.Preload(hi); err == nil {
		t.Error("duplicate preload should error")
	}
	if _, ok := s.Get(100); !ok {
		t.Error("preloaded routine not found")
	}
	if s.TotalInstrs != 4 {
		t.Errorf("TotalInstrs = %d", s.TotalInstrs)
	}
	empty := &Routine{ID: 102, Name: "empty", Prog: &isa.Program{Name: "e", NumReg: 1}}
	if err := s.Preload(empty); err == nil {
		t.Error("empty routine should be rejected")
	}
}

func TestControllerTriggerLimits(t *testing.T) {
	s := NewStore()
	hi, lo := testRoutinePair()
	s.Preload(hi)
	s.Preload(lo)
	c := NewController(s, 4)

	// One high-priority assist warp per parent warp.
	e1 := c.Trigger(hi, 3, NewExec(hi.Prog, hi.ActiveMask), nil)
	if e1 == nil {
		t.Fatal("first trigger failed")
	}
	if c.Trigger(hi, 3, NewExec(hi.Prog, hi.ActiveMask), nil) != nil {
		t.Error("second high-pri trigger for same warp must be rejected")
	}
	if c.Trigger(hi, 4, NewExec(hi.Prog, hi.ActiveMask), nil) == nil {
		t.Error("different warp should trigger fine")
	}
	// Low-priority partition has 2 entries.
	if c.Trigger(lo, 5, NewExec(lo.Prog, lo.ActiveMask), nil) == nil {
		t.Error("low-pri slot 1 should trigger")
	}
	if c.Trigger(lo, 6, NewExec(lo.Prog, lo.ActiveMask), nil) == nil {
		t.Error("low-pri slot 2 should trigger")
	}
	if c.Trigger(lo, 7, NewExec(lo.Prog, lo.ActiveMask), nil) != nil {
		t.Error("low-pri partition is full (2 entries)")
	}
	// AWT full.
	if c.Trigger(hi, 8, NewExec(hi.Prog, hi.ActiveMask), nil) != nil {
		t.Error("AWT is full (4 entries)")
	}
}

func TestControllerDeployRoundRobin(t *testing.T) {
	s := NewStore()
	hi, _ := testRoutinePair()
	s.Preload(hi)
	c := NewController(s, 8)
	c.DeployBW = 2
	c.StagedCap = 2
	e1 := c.Trigger(hi, 0, NewExec(hi.Prog, hi.ActiveMask), nil)
	e2 := c.Trigger(hi, 1, NewExec(hi.Prog, hi.ActiveMask), nil)
	c.Tick() // DeployBW=2: one instr staged for each
	if e1.Staged != 1 || e2.Staged != 1 {
		t.Errorf("staged = %d/%d, want 1/1", e1.Staged, e2.Staged)
	}
	c.Tick()
	if e1.Staged != 2 || e2.Staged != 2 {
		t.Errorf("staged = %d/%d, want 2/2 (StagedCap)", e1.Staged, e2.Staged)
	}
	c.Tick() // both at cap: nothing staged
	if e1.Staged != 2 || e2.Staged != 2 {
		t.Error("staging must respect per-entry cap")
	}
}

func TestControllerThrottlesLowPriority(t *testing.T) {
	s := NewStore()
	hi, lo := testRoutinePair()
	s.Preload(hi)
	s.Preload(lo)
	c := NewController(s, 8)
	eh := c.Trigger(hi, 0, NewExec(hi.Prog, hi.ActiveMask), nil)
	el := c.Trigger(lo, 1, NewExec(lo.Prog, lo.ActiveMask), nil)
	// Saturate the utilization window.
	for i := 0; i < 64; i++ {
		c.NoteIssueSlot(true)
	}
	if !c.LowPriorityThrottled() {
		t.Fatal("fully busy pipeline should throttle low priority")
	}
	c.Tick()
	if el.Staged != 0 {
		t.Error("low-pri must not deploy under throttle")
	}
	if eh.Staged == 0 {
		t.Error("high-pri must still deploy under throttle")
	}
	// Now idle the pipeline.
	for i := 0; i < 64; i++ {
		c.NoteIssueSlot(false)
	}
	c.Tick()
	if el.Staged == 0 {
		t.Error("low-pri should deploy once idle")
	}
}

func TestControllerRetireAndComplete(t *testing.T) {
	s := NewStore()
	hi, _ := testRoutinePair()
	s.Preload(hi)
	c := NewController(s, 8)
	e := c.Trigger(hi, 2, NewExec(hi.Prog, hi.ActiveMask), "ctx")
	// Drive to completion: stage, issue, execute.
	for !e.Exec.Done {
		e.Exec.Step()
	}
	c.Retire(e)
	if len(c.Entries()) != 0 || c.HighFor(2) != nil {
		t.Error("entry must be removed from AWT")
	}
	// The owner completes the retired entry from its User and Exec.
	if e.User != "ctx" || !e.Done() {
		t.Errorf("retired entry lost its state: user %v, done %v", e.User, e.Done())
	}
	// A new high-pri trigger for warp 2 must now succeed.
	if c.Trigger(hi, 2, NewExec(hi.Prog, hi.ActiveMask), nil) == nil {
		t.Error("slot should be free after retire")
	}
}

func TestEntryDone(t *testing.T) {
	hi, _ := testRoutinePair()
	e := &Entry{Routine: hi, Exec: NewExec(hi.Prog, hi.ActiveMask)}
	if e.Done() {
		t.Error("fresh entry is not done")
	}
	for !e.Exec.Done {
		e.Exec.Step()
	}
	e.Outstanding = 1
	if e.Done() {
		t.Error("outstanding writebacks keep the entry live")
	}
	e.Outstanding = 0
	if !e.Done() {
		t.Error("entry should be done")
	}
}

func TestUtilizationWindow(t *testing.T) {
	c := NewController(NewStore(), 1)
	for i := 0; i < 32; i++ {
		c.NoteIssueSlot(true)
		c.NoteIssueSlot(false)
	}
	if u := c.Utilization(); u != 0.5 {
		t.Errorf("utilization = %v, want 0.5", u)
	}
}

// TestControllerLoadRejectsBadState feeds Controller.Load CRC-valid
// payloads holding state the controller cannot produce. Each must come
// back as a *snapshot.FormatError instead of loading, panicking on a
// later tick or growing the warp table without bound.
func TestControllerLoadRejectsBadState(t *testing.T) {
	hi, lo := testRoutinePair()
	store := NewStore()
	store.Preload(hi)
	store.Preload(lo)
	type ent struct {
		id                        RoutineID
		warp, staged, outstanding int
	}
	type state struct {
		rr        int
		window    uint64
		pos, busy int
		ents      []ent
	}
	encode := func(s state) []byte {
		w := &snapshot.Writer{}
		w.Int(s.rr)
		w.U64(s.window)
		w.Int(s.pos)
		w.Int(s.busy)
		w.Len(len(s.ents))
		for _, e := range s.ents {
			w.U64(uint64(e.id))
			w.Int(e.warp)
			w.Int(e.staged)
			w.Int(e.outstanding)
			for j := 0; j < 4; j++ {
				w.U64(0)
			}
			w.U8(0)
			NewAssistExec(store.MustGet(e.id)).Save(w, true)
		}
		return w.Payload()
	}
	good := func() state {
		return state{rr: 1, window: 0b1011, pos: 5, busy: 3,
			ents: []ent{{hi.ID, 3, 2, 1}, {lo.ID, 0, 4, 0}}}
	}
	cases := []struct {
		name string
		edit func(*state)
	}{
		{"negative rr", func(s *state) { s.rr = -1 }},
		{"window position 64", func(s *state) { s.pos = 64 }},
		{"negative window position", func(s *state) { s.pos = -1 }},
		{"busy count above the ring's", func(s *state) { s.busy = 4 }},
		{"busy count below the ring's", func(s *state) { s.busy = 2 }},
		{"more entries than the AWT", func(s *state) {
			for w := 4; w < 8; w++ {
				s.ents = append(s.ents, ent{hi.ID, w, 0, 0})
			}
		}},
		{"warp 1<<40", func(s *state) { s.ents[0].warp = 1 << 40 }},
		{"warp past the masks", func(s *state) { s.ents[0].warp = MaxWarps }},
		{"negative warp", func(s *state) { s.ents[1].warp = -1 }},
		{"staged above StagedCap", func(s *state) { s.ents[0].staged = 5 }},
		{"negative staged", func(s *state) { s.ents[1].staged = -1 }},
		{"negative outstanding", func(s *state) { s.ents[0].outstanding = -1 }},
	}
	load := func(blob []byte) (*Controller, error) {
		c := NewController(store, 4)
		err := c.Load(snapshot.NewReader(blob), func(*snapshot.Reader, *Entry) error { return nil })
		return c, err
	}
	c, err := load(encode(good()))
	if err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
	if len(c.Entries()) != 2 || c.HighFor(3) != c.Entries()[0] || c.Utilization() != 3.0/64 {
		t.Fatal("valid state restored wrongly")
	}
	for _, tc := range cases {
		s := good()
		tc.edit(&s)
		_, err := load(encode(s))
		var fe *snapshot.FormatError
		if !errors.As(err, &fe) {
			t.Errorf("%s: Load returned %v, want a *snapshot.FormatError", tc.name, err)
		}
	}
}
