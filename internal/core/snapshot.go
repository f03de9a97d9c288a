package core

import (
	"math/bits"

	"github.com/caba-sim/caba/internal/isa"
	"github.com/caba-sim/caba/internal/snapshot"
)

// Serialization of the CABA framework's architectural state: warp
// execution contexts (Exec) and the Assist Warp Controller with its live
// AWT entries. The opaque owner payload (Entry.User) is round-tripped
// through caller-supplied codecs, since only the GPU core knows how to
// encode it; an entry holds no callback, so nothing else needs
// rebuilding.

// maxSnapLen bounds decoded collection lengths; every real collection here
// is far smaller, so a larger claim is always corruption.
const maxSnapLen = 1 << 20

// Bits exposes the scoreboard's raw bitsets for serialization.
func (m *RegMask) Bits() (g [4]uint64, p uint8) { return m.g, m.p }

// SetBits restores the scoreboard from its raw bitsets.
func (m *RegMask) SetBits(g [4]uint64, p uint8) { m.g, m.p = g, p }

// StackDepth returns the SIMT divergence-stack depth (invariant audits
// bound it by the program length).
func (e *Exec) StackDepth() int { return len(e.stack) }

// Save serializes the execution context. Program identity is the caller's
// responsibility (a warp's program comes from the kernel, an assist
// warp's from its routine). includeBufs also serializes the staging
// buffers and the Shared view — set for assist warps, whose Exec owns all
// three; regular warps stage nothing and share the CTA's memory, which
// the SM serializes once per CTA.
func (e *Exec) Save(w *snapshot.Writer, includeBufs bool) {
	w.Int(e.PC)
	w.Int(e.rpc)
	w.U32(e.Active)
	w.U32(e.launch)
	w.U32(e.exited)
	w.Len(len(e.stack))
	for _, f := range e.stack {
		w.Int(f.pc)
		w.Int(f.rpc)
		w.U32(f.mask)
	}
	w.Len(len(e.regBack))
	for _, v := range e.regBack {
		w.U64(v)
	}
	// Predicates and specials keep their lane-major encoding: one byte of
	// predicate bits per lane, then each lane's special registers.
	for lane := 0; lane < WarpSize; lane++ {
		var pb uint8
		for p, m := range e.preds {
			pb |= uint8(m>>lane&1) << p
		}
		w.U8(pb)
	}
	for lane := 0; lane < WarpSize; lane++ {
		for s := range e.special {
			w.U64(e.special[s][lane])
		}
	}
	if includeBufs {
		w.Bytes(e.StageIn)
		w.Bytes(e.StageOut)
		w.Bytes(e.Shared)
	}
	w.Bool(e.Done)
	w.Bool(e.AtBarrier)
	if e.Err != nil {
		w.Bool(true)
		w.String(e.Err.Error())
	} else {
		w.Bool(false)
	}
	w.U64(e.Executed)
}

// Load restores the execution context for prog, mirroring Save. The
// caller sets Mem and (for regular warps) Shared afterwards.
func (e *Exec) Load(r *snapshot.Reader, prog *isa.Program, includeBufs bool) error {
	e.Reset(prog, 0)
	e.PC = r.Int()
	e.rpc = r.Int()
	e.Active = r.U32()
	e.launch = r.U32()
	e.exited = r.U32()
	n := r.Len(maxSnapLen)
	for i := 0; i < n; i++ {
		e.stack = append(e.stack, pathFrame{pc: r.Int(), rpc: r.Int(), mask: r.U32()})
	}
	nr := r.Len(maxSnapLen)
	if r.Err() != nil {
		return r.Err()
	}
	if nr != len(e.regBack) {
		return &snapshot.FormatError{Off: -1,
			Msg: "register file size mismatch (wrong program?)"}
	}
	for i := range e.regBack {
		e.regBack[i] = r.U64()
	}
	for lane := 0; lane < WarpSize; lane++ {
		pb := r.U8()
		for p := range e.preds {
			e.preds[p] |= uint32(pb>>p&1) << lane
		}
	}
	for lane := 0; lane < WarpSize; lane++ {
		for s := range e.special {
			e.special[s][lane] = r.U64()
		}
	}
	if includeBufs {
		e.StageIn = append(e.StageIn[:0], r.Bytes(maxSnapLen)...)
		e.StageOut = append(e.StageOut[:0], r.Bytes(maxSnapLen)...)
		e.Shared = append(e.Shared[:0], r.Bytes(maxSnapLen)...)
	}
	e.Done = r.Bool()
	e.AtBarrier = r.Bool()
	if r.Bool() {
		e.Err = &execErr{msg: r.String(maxSnapLen)}
	}
	e.Executed = r.U64()
	if e.PC < 0 || e.PC > len(prog.Code) || e.rpc < 0 || e.rpc > len(prog.Code) {
		return &snapshot.FormatError{Off: -1, Msg: "PC out of program range"}
	}
	return r.Err()
}

// execErr is a restored execution error: only the message survives a
// snapshot round trip (the wrap chain does not), which is all the
// simulator's error reporting consumes.
type execErr struct{ msg string }

// Error returns the restored message.
func (e *execErr) Error() string { return e.msg }

// Save serializes the controller and its AWT entries. encEntry encodes
// each entry's opaque User payload. Entries are written in AWT position
// order, which Load restores along with the masks and highByWarp. The
// window is written as its 64-bit ring, its position and its busy count
// (the ring's popcount).
func (c *Controller) Save(w *snapshot.Writer, encEntry func(*snapshot.Writer, *Entry) error) error {
	w.Int(c.rr)
	w.U64(c.window)
	w.Int(c.windowPos)
	w.Int(bits.OnesCount64(c.window))
	w.Len(len(c.entries))
	for _, e := range c.entries {
		w.U64(uint64(e.Routine.ID))
		w.Int(e.Warp)
		w.Int(e.Staged)
		w.Int(e.Outstanding)
		g, p := e.SB.Bits()
		for _, v := range g {
			w.U64(v)
		}
		w.U8(p)
		e.Exec.Save(w, true)
		if err := encEntry(w, e); err != nil {
			return err
		}
	}
	return nil
}

// Load restores the controller. decEntry decodes each entry's User
// payload (and may reject one its owner could not complete); the entry's
// Routine, Warp and Exec are already populated when it runs. State the
// controller could not have produced — a negative rr, a window position
// outside the ring, a busy count that disagrees with the ring, more
// entries than the AWT holds, a parent warp outside the masks, Staged
// outside [0, StagedCap] or a negative Outstanding — is a
// *snapshot.FormatError.
func (c *Controller) Load(r *snapshot.Reader, decEntry func(*snapshot.Reader, *Entry) error) error {
	c.rr = r.Int()
	c.window = r.U64()
	c.windowPos = r.Int()
	busy := r.Int()
	n := r.Len(maxSnapLen)
	if r.Err() != nil {
		return r.Err()
	}
	switch {
	case c.rr < 0:
		return &snapshot.FormatError{Off: -1, Msg: "negative AWC round-robin pointer"}
	case c.windowPos < 0 || c.windowPos >= windowSlots:
		return &snapshot.FormatError{Off: -1, Msg: "utilization window position out of range"}
	case busy != bits.OnesCount64(c.window):
		return &snapshot.FormatError{Off: -1, Msg: "utilization window busy count disagrees with its bits"}
	case n > c.MaxEntries:
		return &snapshot.FormatError{Off: -1, Msg: "more AWT entries than the table holds"}
	}
	c.entries = c.entries[:0]
	c.ready, c.staged = [2]uint64{}, [2]uint64{}
	c.highByWarp = [MaxWarps]*Entry{}
	c.nLow = 0
	for i := 0; i < n; i++ {
		id := RoutineID(r.U64())
		rt, ok := c.Store.Get(id)
		if r.Err() != nil {
			return r.Err()
		}
		if !ok {
			return &snapshot.FormatError{Off: -1, Msg: "unknown assist routine id"}
		}
		e := &Entry{Routine: rt, Pri: rt.Priority, Warp: r.Int(), Staged: r.Int(), Outstanding: r.Int()}
		if r.Err() != nil {
			return r.Err()
		}
		switch {
		case e.Warp < 0 || e.Warp >= MaxWarps:
			return &snapshot.FormatError{Off: -1, Msg: "AWT entry parent warp out of range"}
		case e.Staged < 0 || e.Staged > c.StagedCap:
			return &snapshot.FormatError{Off: -1, Msg: "AWT entry staged count out of range"}
		case e.Outstanding < 0:
			return &snapshot.FormatError{Off: -1, Msg: "AWT entry outstanding count negative"}
		}
		var g [4]uint64
		for j := range g {
			g[j] = r.U64()
		}
		e.SB.SetBits(g, r.U8())
		e.Exec = NewAssistExec(rt)
		if err := e.Exec.Load(r, rt.Prog, true); err != nil {
			return err
		}
		if err := decEntry(r, e); err != nil {
			return err
		}
		c.add(e)
	}
	return r.Err()
}
