// Package core implements the paper's contribution: the Core-Assisted
// Bottleneck Acceleration framework. It provides
//
//   - the warp-level functional executor (Exec) that runs both regular
//     kernels and assist-warp subroutines in lockstep SIMT fashion with
//     PDOM-based reconvergence;
//   - the CABA hardware structures of Section 3.3: the Assist Warp Store
//     (AWS), Assist Warp Table + Controller (AWT/AWC) and Assist Warp
//     Buffer (AWB), with priorities, round-robin deployment, throttling
//     and kill/flush;
//   - the assist-warp subroutine library of Section 4: BDI decompression
//     (one routine per encoding) and compression (per-encoding tests with
//     a warp-wide vote), FPC and C-Pack routines, and the memoization and
//     prefetching routines of Section 7.
package core

import (
	"encoding/binary"
	"fmt"

	"github.com/caba-sim/caba/internal/isa"
)

// WarpSize is the number of SIMT lanes per warp.
const WarpSize = 32

// FullMask activates all lanes.
const FullMask uint32 = 0xFFFFFFFF

// GlobalMem is the functional global-memory interface the executor uses.
type GlobalMem interface {
	LoadGlobal(addr uint64, width uint8) uint64
	StoreGlobal(addr uint64, v uint64, width uint8)
	AtomicAdd(addr uint64, v uint64, width uint8) uint64
}

// NopMem is a GlobalMem that ignores stores and loads zeros, for routines
// that never touch global memory (all compression subroutines).
type NopMem struct{}

// LoadGlobal returns 0.
func (NopMem) LoadGlobal(uint64, uint8) uint64 { return 0 }

// StoreGlobal discards the store.
func (NopMem) StoreGlobal(uint64, uint64, uint8) {}

// AtomicAdd returns 0 and discards the update.
func (NopMem) AtomicAdd(uint64, uint64, uint8) uint64 { return 0 }

// pathFrame is one SIMT-stack entry: resume execution at pc with mask,
// reconverging at rpc.
type pathFrame struct {
	pc   int
	rpc  int
	mask uint32
}

// StepInfo reports what one executed instruction did, for the timing
// model: its op, the lanes that ran it, and — for global memory ops — the
// per-lane addresses to coalesce.
type StepInfo struct {
	Instr    *isa.Instr
	ExecMask uint32 // lanes that actually executed (active & guard)
	Width    uint8
	Addrs    [WarpSize]uint64 // valid where ExecMask bit set, global ops only
	IsGlobal bool
}

// Exec is one warp's execution context: per-lane registers and predicates,
// the SIMT divergence stack, shared-memory and staging-buffer views, and
// special-register values. Both regular warps and assist warps use it;
// assist warps get a fresh small Exec whose registers model the reserved
// slice of the parent's register file.
type Exec struct {
	Prog  *isa.Program
	ipdom []int
	dec   *isa.Decoded

	// Interp selects the original per-instruction interpreter instead of
	// the predecoded superop engine. The two are bit-identical (pinned by
	// the differential tests and FuzzPredecode); the interpreter survives
	// as the differential-testing reference behind Config.Interpreter.
	Interp bool

	PC     int
	rpc    int // reconvergence point of the current path (len(code) = none)
	Active uint32
	launch uint32 // lanes that ever existed (initial mask)
	exited uint32
	stack  []pathFrame

	// regBack is the flat register file, register-major:
	// [reg*WarpSize+lane]. A SIMT step touches one register across all 32
	// lanes at once, so each register is one contiguous 32-lane row that
	// the decoded engine's warp-wide kernels address as a *[WarpSize]uint64.
	// Access via Reg/SetReg.
	regBack []uint64
	// preds is the predicate file: bit lane of preds[p] is lane's value of
	// predicate register p, so guards and predicate ops are word operations.
	preds [isa.NumPredRegs]uint32
	// special is the special-register file, register-major like regBack
	// (special[s][lane]). It stays out of line: inlined, its 3 KB would
	// move Exec into the 4 KB size class (see TestExecStaysSmall).
	special *[isa.NumSpecial][WarpSize]uint64

	Shared   []byte // CTA shared memory view (may be nil)
	StageIn  []byte // assist staging input (ld.stage)
	StageOut []byte // assist staging output (st.stage)

	Mem GlobalMem

	Done      bool
	AtBarrier bool
	Err       error

	// Instructions executed (warp-level), for tests and cost accounting.
	Executed uint64

	// tmp is a scratch row: shfl's pre-instruction snapshot of its source,
	// a partial-mask kernel's output before the masked merge, and the write
	// sink for instructions without a general destination.
	tmp [WarpSize]uint64
	// info is the per-step result buffer behind StepRef; transient (never
	// snapshotted) and overwritten by every Step/StepRef call.
	info StepInfo
}

// NewExec builds an execution context for prog with the given initial
// active mask. Register files are sized from prog.NumReg; all lanes share
// one flat backing array, so a context costs a handful of allocations
// rather than one per lane.
func NewExec(prog *isa.Program, active uint32) *Exec {
	e := &Exec{}
	e.Reset(prog, active)
	return e
}

// Reset reinitializes e for a fresh run of prog with the given active
// mask, reusing every prior allocation (register backing, predicate and
// special files, the SIMT stack). It is the allocation-free twin of
// NewExec for execution-context pools; staging buffers (StageIn/StageOut/
// Shared) are left untouched for the caller to manage.
func (e *Exec) Reset(prog *isa.Program, active uint32) {
	e.Prog = prog
	e.ipdom = prog.IPDom()
	e.dec = prog.Decoded()
	e.PC = 0
	e.rpc = len(prog.Code)
	e.Active = active
	e.launch = active
	e.exited = 0
	e.stack = e.stack[:0]
	e.Mem = NopMem{}
	e.Done = active == 0
	e.AtBarrier = false
	e.Err = nil
	e.Executed = 0

	need := WarpSize * prog.NumReg
	if cap(e.regBack) < need {
		e.regBack = make([]uint64, need)
	} else {
		e.regBack = e.regBack[:need]
		clear(e.regBack)
	}
	e.preds = [isa.NumPredRegs]uint32{}
	if e.special == nil {
		e.special = new([isa.NumSpecial][WarpSize]uint64)
	} else {
		*e.special = [isa.NumSpecial][WarpSize]uint64{}
	}
	lanes := &e.special[isa.RegLane.SpecialIndex()]
	for lane := range lanes {
		lanes[lane] = uint64(lane)
	}
}

// SetSpecial sets a special register to the same value in every lane
// (thread-varying specials like %tid are set per lane by the launcher).
func (e *Exec) SetSpecial(r isa.Reg, v uint64) {
	row := &e.special[r.SpecialIndex()]
	for lane := range row {
		row[lane] = v
	}
}

// SetLaneSpecial sets a special register in one lane.
func (e *Exec) SetLaneSpecial(lane int, r isa.Reg, v uint64) {
	e.special[r.SpecialIndex()][lane] = v
}

// Current returns the instruction the warp will execute next, or nil when
// the warp is done or stopped at a barrier.
func (e *Exec) Current() *isa.Instr {
	if e.Done || e.AtBarrier || e.Err != nil {
		return nil
	}
	return &e.Prog.Code[e.PC]
}

// CurrentSop returns the predecoded form of the instruction the warp will
// execute next, or nil when the warp is done or stopped at a barrier.
// Superop index == PC, so CurrentSop and Current always describe the same
// instruction.
func (e *Exec) CurrentSop() *isa.Superop {
	if e.Done || e.AtBarrier || e.Err != nil {
		return nil
	}
	return &e.dec.Ops[e.PC]
}

// Reg returns lane's value of general register r.
func (e *Exec) Reg(lane, r int) uint64 { return e.regBack[r*WarpSize+lane] }

// SetReg sets lane's value of general register r (live-in population and
// tests; the hot paths index regBack directly).
func (e *Exec) SetReg(lane, r int, v uint64) { e.regBack[r*WarpSize+lane] = v }

func (e *Exec) readReg(lane int, r isa.Reg) uint64 {
	if r == isa.RegNone {
		return 0
	}
	if r.IsGeneral() {
		return e.regBack[r.GeneralIndex()*WarpSize+lane]
	}
	return e.special[r.SpecialIndex()][lane]
}

func (e *Exec) writeReg(lane int, r isa.Reg, v uint64) {
	if r != isa.RegNone && r.IsGeneral() {
		e.regBack[r.GeneralIndex()*WarpSize+lane] = v
	}
}

// execMask returns the lanes that execute the current instruction after
// applying its guard predicate.
func (e *Exec) execMask(in *isa.Instr) uint32 {
	if in.Guard == isa.PredNone {
		return e.Active
	}
	var m uint32
	for lane := 0; lane < WarpSize; lane++ {
		if e.Active&(1<<lane) == 0 {
			continue
		}
		if e.pred(lane, in.Guard) != in.GuardNeg {
			m |= 1 << lane
		}
	}
	return m
}

// pred reads lane's value of predicate register p.
func (e *Exec) pred(lane int, p isa.Pred) bool { return e.preds[p]>>lane&1 != 0 }

// setPred writes lane's value of predicate register p.
func (e *Exec) setPred(lane int, p isa.Pred, v bool) {
	if v {
		e.preds[p] |= 1 << lane
	} else {
		e.preds[p] &^= 1 << lane
	}
}

func (e *Exec) fail(format string, args ...any) {
	e.Err = fmt.Errorf("core: %s: pc %d: %s", e.Prog.Name, e.PC, fmt.Sprintf(format, args...))
	e.Done = true
}

// stageLoad reads width bytes little-endian from buf at off; bytes outside
// buf read as zero (staging buffers are logically zero-padded).
func stageLoad(buf []byte, off int64, width uint8) uint64 {
	if off >= 0 && off <= int64(len(buf))-8 {
		// The whole 8-byte window is in range: one load, masked to width
		// (bytes past the eighth would shift out of the value anyway).
		v := binary.LittleEndian.Uint64(buf[off:])
		if width < 8 {
			v &= 1<<(8*uint(width)) - 1
		}
		return v
	}
	var v uint64
	for i := 0; i < int(width); i++ {
		idx := off + int64(i)
		if idx >= 0 && idx < int64(len(buf)) {
			v |= uint64(buf[idx]) << (8 * i)
		}
	}
	return v
}

// stageStore writes width bytes little-endian; out-of-range is an error
// (a subroutine bug).
func stageStore(buf []byte, off int64, v uint64, width uint8) bool {
	if off < 0 || off+int64(width) > int64(len(buf)) {
		return false
	}
	for i := 0; i < int(width); i++ {
		buf[off+int64(i)] = byte(v >> (8 * i))
	}
	return true
}

// PeekAddrs computes the per-lane effective addresses of the *current*
// instruction without executing it, so the scheduler can coalesce and
// check MSHR capacity before committing to issue. Returns the would-be
// exec mask; only valid for memory ops.
func (e *Exec) PeekAddrs(addrs *[WarpSize]uint64) uint32 {
	in := e.Current()
	if in == nil {
		return 0
	}
	mask := e.execMask(in)
	for lane := 0; lane < WarpSize; lane++ {
		if mask&(1<<lane) != 0 {
			addrs[lane] = e.readReg(lane, in.SrcA) + uint64(in.Imm)
		}
	}
	return mask
}

// Step executes exactly one warp instruction functionally and returns what
// it did. Calling Step on a done/barrier/errored warp returns ok=false.
// The predecoded superop engine (stepDecoded) is the default; Interp
// routes through the original field-walking interpreter, which is kept
// bit-identical for differential testing.
func (e *Exec) Step() (StepInfo, bool) {
	if e.Interp {
		return e.stepInterp()
	}
	if !e.stepDecoded() {
		return StepInfo{}, false
	}
	return e.info, true
}

// StepRef executes one instruction like Step but returns a pointer to an
// internal buffer instead of copying the 288-byte StepInfo out. Addrs
// entries for lanes outside ExecMask are unspecified (possibly stale from
// an earlier instruction); every consumer masks by ExecMask. The buffer
// is overwritten by the next Step/StepRef on this Exec.
func (e *Exec) StepRef() (*StepInfo, bool) {
	if e.Interp {
		info, ok := e.stepInterp()
		e.info = info
		return &e.info, ok
	}
	ok := e.stepDecoded()
	return &e.info, ok
}

// stepInterp is the reference interpreter: it re-walks Instr fields
// (RegNone checks, IsGeneral branches, per-lane EvalALU dispatch) on every
// execution.
func (e *Exec) stepInterp() (StepInfo, bool) {
	in := e.Current()
	if in == nil {
		return StepInfo{}, false
	}
	e.Executed++
	info := StepInfo{Instr: in, ExecMask: e.execMask(in), Width: in.Width}
	adv := true // advance PC by 1 unless a branch redirects

	switch in.Op {
	case isa.OpBra:
		// Unconditional (assembler only emits guard-free OpBra).
		e.PC = int(in.Target)
		adv = false

	case isa.OpBrab:
		adv = false
		taken := info.ExecMask
		notTaken := e.Active &^ taken
		switch {
		case taken == 0:
			e.PC++
		case notTaken == 0:
			e.PC = int(in.Target)
		default:
			r := e.ipdom[e.PC]
			e.stack = append(e.stack,
				pathFrame{pc: r, rpc: e.rpc, mask: e.Active},
				pathFrame{pc: e.PC + 1, rpc: r, mask: notTaken},
			)
			e.Active = taken
			e.PC = int(in.Target)
			e.rpc = r
		}

	case isa.OpExit:
		adv = false
		e.exited |= info.ExecMask
		if rem := e.Active &^ info.ExecMask; rem != 0 {
			// Guarded exit: surviving lanes continue.
			e.Active = rem
			e.PC++
		} else {
			e.popPath()
		}

	case isa.OpBar:
		// PC advances in ReleaseBarrier, once all CTA warps arrive.
		e.AtBarrier = true
		adv = false

	case isa.OpSetP, isa.OpSetPI:
		for lane := 0; lane < WarpSize; lane++ {
			if info.ExecMask&(1<<lane) == 0 {
				continue
			}
			a := e.readReg(lane, in.SrcA)
			b := uint64(in.Imm)
			if in.Op == isa.OpSetP {
				b = e.readReg(lane, in.SrcB)
			}
			e.setPred(lane, in.PDst, isa.EvalCmp(in.Cmp, a, b))
		}

	case isa.OpPAnd, isa.OpPOr, isa.OpPNot:
		for lane := 0; lane < WarpSize; lane++ {
			if info.ExecMask&(1<<lane) == 0 {
				continue
			}
			pa := e.pred(lane, in.PA)
			switch in.Op {
			case isa.OpPAnd:
				e.setPred(lane, in.PDst, pa && e.pred(lane, in.PB))
			case isa.OpPOr:
				e.setPred(lane, in.PDst, pa || e.pred(lane, in.PB))
			case isa.OpPNot:
				e.setPred(lane, in.PDst, !pa)
			}
		}

	case isa.OpVoteAll, isa.OpVoteAny:
		all, any := true, false
		for lane := 0; lane < WarpSize; lane++ {
			if info.ExecMask&(1<<lane) == 0 {
				continue
			}
			if e.pred(lane, in.PA) {
				any = true
			} else {
				all = false
			}
		}
		v := any
		if in.Op == isa.OpVoteAll {
			v = all
		}
		for lane := 0; lane < WarpSize; lane++ {
			if info.ExecMask&(1<<lane) != 0 {
				e.setPred(lane, in.PDst, v)
			}
		}

	case isa.OpBallot:
		var mask uint64
		for lane := 0; lane < WarpSize; lane++ {
			if info.ExecMask&(1<<lane) != 0 && e.pred(lane, in.PA) {
				mask |= 1 << lane
			}
		}
		for lane := 0; lane < WarpSize; lane++ {
			if info.ExecMask&(1<<lane) != 0 {
				e.writeReg(lane, in.Dst, mask)
			}
		}

	case isa.OpShfl:
		// Snapshot pre-instruction values of SrcA across the warp.
		for lane := 0; lane < WarpSize; lane++ {
			e.tmp[lane] = e.readReg(lane, in.SrcA)
		}
		for lane := 0; lane < WarpSize; lane++ {
			if info.ExecMask&(1<<lane) == 0 {
				continue
			}
			src := int(e.readReg(lane, in.SrcB) & 31)
			var v uint64
			if info.ExecMask&(1<<src) != 0 {
				v = e.tmp[src]
			}
			e.writeReg(lane, in.Dst, v)
		}

	case isa.OpSel:
		for lane := 0; lane < WarpSize; lane++ {
			if info.ExecMask&(1<<lane) == 0 {
				continue
			}
			if e.pred(lane, in.PA) {
				e.writeReg(lane, in.Dst, e.readReg(lane, in.SrcA))
			} else {
				e.writeReg(lane, in.Dst, e.readReg(lane, in.SrcB))
			}
		}

	case isa.OpLdGlobal, isa.OpStGlobal, isa.OpAtomAdd:
		info.IsGlobal = true
		for lane := 0; lane < WarpSize; lane++ {
			if info.ExecMask&(1<<lane) == 0 {
				continue
			}
			addr := e.readReg(lane, in.SrcA) + uint64(in.Imm)
			info.Addrs[lane] = addr
			switch in.Op {
			case isa.OpLdGlobal:
				e.writeReg(lane, in.Dst, e.Mem.LoadGlobal(addr, in.Width))
			case isa.OpStGlobal:
				e.Mem.StoreGlobal(addr, e.readReg(lane, in.SrcB), in.Width)
			case isa.OpAtomAdd:
				e.writeReg(lane, in.Dst, e.Mem.AtomicAdd(addr, e.readReg(lane, in.SrcB), in.Width))
			}
		}

	case isa.OpLdShared, isa.OpStShared:
		for lane := 0; lane < WarpSize; lane++ {
			if info.ExecMask&(1<<lane) == 0 {
				continue
			}
			off := int64(e.readReg(lane, in.SrcA)) + in.Imm
			if in.Op == isa.OpLdShared {
				e.writeReg(lane, in.Dst, stageLoad(e.Shared, off, in.Width))
			} else {
				if !stageStore(e.Shared, off, e.readReg(lane, in.SrcB), in.Width) {
					e.fail("shared store out of range: off %d", off)
					return info, true
				}
			}
		}

	case isa.OpLdStage, isa.OpStStage:
		for lane := 0; lane < WarpSize; lane++ {
			if info.ExecMask&(1<<lane) == 0 {
				continue
			}
			off := int64(e.readReg(lane, in.SrcA)) + in.Imm
			if in.Op == isa.OpLdStage {
				e.writeReg(lane, in.Dst, stageLoad(e.StageIn, off, in.Width))
			} else {
				if !stageStore(e.StageOut, off, e.readReg(lane, in.SrcB), in.Width) {
					e.fail("stage store out of range: off %d", off)
					return info, true
				}
			}
		}

	default:
		// Scalar ALU/SFU ops.
		for lane := 0; lane < WarpSize; lane++ {
			if info.ExecMask&(1<<lane) == 0 {
				continue
			}
			a := e.readReg(lane, in.SrcA)
			b := e.readReg(lane, in.SrcB)
			c := e.readReg(lane, in.SrcC)
			v, err := isa.EvalALU(in, a, b, c)
			if err != nil {
				e.fail("%v", err)
				return info, true
			}
			e.writeReg(lane, in.Dst, v)
		}
	}

	if adv && !e.Done {
		e.PC++
	}
	e.checkReconverge()
	return info, true
}

// checkReconverge pops SIMT-stack frames when the current path reaches its
// reconvergence point.
func (e *Exec) checkReconverge() {
	for !e.Done && e.PC == e.rpc {
		e.popPath()
	}
	if !e.Done && e.PC >= len(e.Prog.Code) {
		// Fell off the end: treat as exit.
		e.exited |= e.Active
		e.popPath()
	}
}

// popPath resumes the next pending SIMT path, skipping frames whose lanes
// have all exited; the warp is done when the stack empties.
func (e *Exec) popPath() {
	for len(e.stack) > 0 {
		f := e.stack[len(e.stack)-1]
		e.stack = e.stack[:len(e.stack)-1]
		if m := f.mask &^ e.exited; m != 0 {
			e.PC, e.rpc, e.Active = f.pc, f.rpc, m
			return
		}
	}
	e.Done = true
	e.Active = 0
}

// Run executes until completion, barrier, or error, up to maxSteps
// instructions (a runaway guard). It returns the number executed.
func (e *Exec) Run(maxSteps int) (int, error) {
	n := 0
	for n < maxSteps {
		if _, ok := e.Step(); !ok {
			break
		}
		n++
	}
	if e.Err != nil {
		return n, e.Err
	}
	if n == maxSteps && !e.Done && !e.AtBarrier {
		return n, fmt.Errorf("core: %s: exceeded %d steps", e.Prog.Name, maxSteps)
	}
	return n, nil
}

// ReleaseBarrier lets a warp stopped at a bar proceed.
func (e *Exec) ReleaseBarrier() {
	if e.AtBarrier {
		e.AtBarrier = false
		e.PC++
		e.checkReconverge()
	}
}

// Result returns lane 0's value of register r (the subroutine result
// convention: r0 = status, r1 = size).
func (e *Exec) Result(r isa.Reg) uint64 {
	lane := 0
	for ; lane < WarpSize; lane++ {
		if e.launch&(1<<lane) != 0 {
			break
		}
	}
	if lane == WarpSize {
		return 0
	}
	return e.readReg(lane, r)
}
