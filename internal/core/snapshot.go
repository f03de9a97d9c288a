package core

import (
	"math/bits"

	"github.com/caba-sim/caba/internal/isa"
	"github.com/caba-sim/caba/internal/snapshot"
)

// Checkpoint codecs for the CABA framework's architectural state: warp
// execution contexts (Exec) and the Assist Warp Controller with its live
// AWT entries. Each type has one Snap method that both encodes and
// decodes it (snapshot.Codec). The opaque owner payload (Entry.User) goes
// through a caller-supplied method, since only the GPU core knows how to
// code it; an entry holds no callback, so nothing else needs rebuilding.

// maxSnapLen bounds decoded collection lengths; every real collection here
// is far smaller, so a larger claim is always corruption.
const maxSnapLen = 1 << 20

// Snap codes the scoreboard's raw bitsets.
func (m *RegMask) Snap(c *snapshot.Codec) {
	c.U64s(m.g[:])
	c.U8(&m.p)
}

// StackDepth returns the SIMT divergence-stack depth (invariant audits
// bound it by the program length).
func (e *Exec) StackDepth() int { return len(e.stack) }

// Snap codes the execution context of prog. Program identity is the
// caller's responsibility (a warp's program comes from the kernel, an
// assist warp's from its routine). includeBufs also codes the staging
// buffers and the Shared view — set for assist warps, whose Exec owns all
// three; regular warps stage nothing and share the CTA's memory, which
// the SM codes once per CTA. Decoding resets e for prog first; the caller
// sets Mem and (for regular warps) Shared afterwards.
func (e *Exec) Snap(c *snapshot.Codec, prog *isa.Program, includeBufs bool) {
	if c.Loading() {
		e.Reset(prog, 0)
	}
	c.Int(&e.PC)
	c.Int(&e.rpc)
	c.U32(&e.Active)
	c.U32(&e.launch)
	c.U32(&e.exited)
	snapshot.Slice(c, &e.stack, maxSnapLen, func(f *pathFrame) {
		c.Int(&f.pc)
		c.Int(&f.rpc)
		c.U32(&f.mask)
	})
	c.Shape(len(e.regBack), "register file size")
	c.U64s(e.regBack)
	// Predicates and specials keep their lane-major encoding: one byte of
	// predicate bits per lane, then each lane's special registers.
	for lane := 0; lane < WarpSize; lane++ {
		var pb uint8
		for p, m := range e.preds {
			pb |= uint8(m>>lane&1) << p
		}
		c.U8(&pb)
		if c.Loading() {
			for p := range e.preds {
				e.preds[p] |= uint32(pb>>p&1) << lane
			}
		}
	}
	for lane := 0; lane < WarpSize; lane++ {
		for s := range e.special {
			c.U64(&e.special[s][lane])
		}
	}
	if includeBufs {
		c.Bytes(&e.StageIn, maxSnapLen)
		c.Bytes(&e.StageOut, maxSnapLen)
		c.Bytes(&e.Shared, maxSnapLen)
	}
	c.Bool(&e.Done)
	c.Bool(&e.AtBarrier)
	hasErr := e.Err != nil
	c.Bool(&hasErr)
	if hasErr {
		var msg string
		if e.Err != nil {
			msg = e.Err.Error()
		}
		c.String(&msg, maxSnapLen)
		if c.Loading() {
			e.Err = &execErr{msg: msg}
		}
	}
	c.U64(&e.Executed)
	c.Check(e.PC >= 0 && e.PC <= len(prog.Code) && e.rpc >= 0 && e.rpc <= len(prog.Code), "PC out of program range")
}

// execErr is a restored execution error: only the message survives a
// snapshot round trip (the wrap chain does not), which is all the
// simulator's error reporting consumes.
type execErr struct{ msg string }

// Error returns the restored message.
func (e *execErr) Error() string { return e.msg }

// Snap codes the controller and its AWT entries; user codes each entry's
// opaque User payload (and may reject one its owner could not complete),
// and runs once the entry's Routine, Warp and Exec are in place. Entries
// go in AWT position order, which decoding restores along with the masks
// and highByWarp. The window is coded as its 64-bit ring, its position
// and its busy count (the ring's popcount). State the controller could
// not have produced — a negative rr, a window position outside the ring,
// a busy count that disagrees with the ring, more entries than the AWT
// holds, an unknown routine, a parent warp outside the masks, Staged
// outside [0, StagedCap] or a negative Outstanding — fails the codec.
func (ctl *Controller) Snap(c *snapshot.Codec, user func(*snapshot.Codec, *Entry)) {
	c.Int(&ctl.rr)
	c.U64(&ctl.window)
	c.Int(&ctl.windowPos)
	busy := bits.OnesCount64(ctl.window)
	c.Int(&busy)
	n := len(ctl.entries)
	c.Len(&n, maxSnapLen)
	c.Check(ctl.rr >= 0, "negative AWC round-robin pointer")
	c.Check(ctl.windowPos >= 0 && ctl.windowPos < windowSlots, "utilization window position out of range")
	c.Check(busy == bits.OnesCount64(ctl.window), "utilization window busy count disagrees with its bits")
	if !c.Check(n <= ctl.MaxEntries, "more AWT entries than the table holds") {
		return
	}
	if c.Loading() {
		ctl.entries = ctl.entries[:0]
		ctl.ready, ctl.staged = [2]uint64{}, [2]uint64{}
		ctl.highByWarp = [MaxWarps]*Entry{}
		ctl.nLow = 0
	}
	for i := 0; i < n; i++ {
		var e *Entry
		var id RoutineID
		if c.Loading() {
			e = &Entry{}
		} else {
			e = ctl.entries[i]
			id = e.Routine.ID
		}
		snapshot.Num(c, &id)
		if c.Loading() {
			rt, ok := ctl.Store.Get(id)
			if !c.Check(ok, "unknown assist routine id") {
				return
			}
			e.Routine, e.Pri = rt, rt.Priority
		}
		c.Int(&e.Warp)
		c.Int(&e.Staged)
		c.Int(&e.Outstanding)
		c.Check(e.Warp >= 0 && e.Warp < MaxWarps, "AWT entry parent warp out of range")
		c.Check(e.Staged >= 0 && e.Staged <= ctl.StagedCap, "AWT entry staged count out of range")
		c.Check(e.Outstanding >= 0, "AWT entry outstanding count negative")
		e.SB.Snap(c)
		if c.Err() != nil {
			return
		}
		if c.Loading() {
			e.Exec = NewAssistExec(e.Routine)
		}
		e.Exec.Snap(c, e.Routine.Prog, true)
		if user(c, e); c.Err() != nil {
			return
		}
		if c.Loading() {
			ctl.add(e)
		}
	}
}
