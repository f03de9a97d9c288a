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
	Prog *isa.Program
	dec  *isa.Decoded

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

// CurrentSop returns the predecoded form of the instruction the warp will
// execute next, or nil when the warp is done or stopped at a barrier.
// Superop index == PC, so the superop is the decoded form of
// Prog.Code[PC].
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

// Step executes exactly one warp instruction functionally and returns what
// it did. Calling Step on a done/barrier/errored warp returns ok=false.
func (e *Exec) Step() (StepInfo, bool) {
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
	ok := e.stepDecoded()
	return &e.info, ok
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
