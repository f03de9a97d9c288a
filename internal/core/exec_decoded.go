package core

import (
	"math/bits"

	"github.com/caba-sim/caba/internal/isa"
)

// This file is the execution engine: stepDecoded executes one warp
// instruction from the program's superop form (isa.Decoded). Its test
// oracle is the field-walking interpreter in interp_test.go, which
// re-reads every Instr field per step. The two must stay bit-identical in
// every observable effect — register and predicate files, SIMT stack,
// PC/rpc, Done/AtBarrier/Err (including error text), Executed, and the
// returned StepInfo — a property pinned by FuzzPredecode,
// TestFullWarpKernelsMatchInterpreter, TestLibraryRoutinesMatchInterpreter
// and TestWorkloadKernelsMatchInterpreter.
//
// The speed comes from predecode and warp-wide execution, not from
// different semantics. Operands are direct register-file indices, so each
// one is a 32-lane row (*[WarpSize]uint64) fetched once per instruction.
// Register ops run as one loop over all 32 lanes: straight into the
// destination row when every lane executes, otherwise into the scratch
// row, which is then merged under the exec mask. Predicates are 32-lane
// words, so guards, predicate logic, votes and ballots are single word
// operations. Brab's reconvergence point is a precomputed field instead
// of an IPDom table lookup.

// row returns general register r's 32-lane row.
func (e *Exec) row(r int) *[WarpSize]uint64 {
	return (*[WarpSize]uint64)(e.regBack[r*WarpSize:])
}

// srcRow returns the row of a resolved source operand: the special file
// when spec is set, else the general file.
func (e *Exec) srcRow(r uint16, spec bool) *[WarpSize]uint64 {
	if spec {
		return &e.special[r]
	}
	return e.row(int(r))
}

// dstRow returns the general destination row, or the scratch row as a
// write sink when the instruction writes no general register.
func (e *Exec) dstRow(s *isa.Superop) *[WarpSize]uint64 {
	if s.Dst < 0 {
		return &e.tmp
	}
	return e.row(int(s.Dst))
}

// execMaskSop is execMask on the predecoded form.
func (e *Exec) execMaskSop(s *isa.Superop) uint32 {
	switch {
	case s.Guard == isa.PredNone:
		return e.Active
	case s.GuardNeg:
		return e.Active &^ e.preds[s.Guard]
	default:
		return e.Active & e.preds[s.Guard]
	}
}

// setPredLanes writes v into predicate p's lanes under mask.
func (e *Exec) setPredLanes(p isa.Pred, mask, v uint32) {
	e.preds[p] = e.preds[p]&^mask | v&mask
}

// cmpMask evaluates cmp between a and b in every lane, one result bit per
// lane, with one loop per comparison (a loop that derives them all from
// equal and less-than masks measured slower). An unknown comparison
// panics exactly like isa.EvalCmp.
func cmpMask(cmp isa.CmpOp, a, b *[WarpSize]uint64) uint32 {
	var m uint32
	switch cmp {
	case isa.CmpEQ:
		for l := range a {
			if a[l] == b[l] {
				m |= 1 << l
			}
		}
	case isa.CmpNE:
		for l := range a {
			if a[l] != b[l] {
				m |= 1 << l
			}
		}
	case isa.CmpLT:
		for l := range a {
			if a[l] < b[l] {
				m |= 1 << l
			}
		}
	case isa.CmpLE:
		for l := range a {
			if a[l] <= b[l] {
				m |= 1 << l
			}
		}
	case isa.CmpGT:
		for l := range a {
			if a[l] > b[l] {
				m |= 1 << l
			}
		}
	case isa.CmpGE:
		for l := range a {
			if a[l] >= b[l] {
				m |= 1 << l
			}
		}
	case isa.CmpLTS:
		for l := range a {
			if int64(a[l]) < int64(b[l]) {
				m |= 1 << l
			}
		}
	case isa.CmpLES:
		for l := range a {
			if int64(a[l]) <= int64(b[l]) {
				m |= 1 << l
			}
		}
	case isa.CmpGTS:
		for l := range a {
			if int64(a[l]) > int64(b[l]) {
				m |= 1 << l
			}
		}
	case isa.CmpGES:
		for l := range a {
			if int64(a[l]) >= int64(b[l]) {
				m |= 1 << l
			}
		}
	default:
		isa.EvalCmp(cmp, 0, 0)
	}
	return m
}

// stepDecoded executes exactly one warp instruction from the superop
// form, filling e.info in place (only Addrs entries for executed lanes
// are written; see StepRef). See Step for the contract.
func (e *Exec) stepDecoded() bool {
	if e.Done || e.AtBarrier || e.Err != nil {
		return false
	}
	s := &e.dec.Ops[e.PC]
	e.Executed++
	info := &e.info
	mask := e.execMaskSop(s)
	info.Instr = s.In
	info.ExecMask = mask
	info.Width = s.Width
	info.IsGlobal = false
	adv := true // advance PC by 1 unless a branch redirects

	switch s.Op {
	case isa.OpBra:
		// Unconditional (assembler only emits guard-free OpBra).
		e.PC = int(s.Target)
		adv = false

	case isa.OpBrab:
		adv = false
		taken := mask
		notTaken := e.Active &^ taken
		switch {
		case taken == 0:
			e.PC++
		case notTaken == 0:
			e.PC = int(s.Target)
		default:
			r := int(s.RPC)
			e.stack = append(e.stack,
				pathFrame{pc: r, rpc: e.rpc, mask: e.Active},
				pathFrame{pc: e.PC + 1, rpc: r, mask: notTaken},
			)
			e.Active = taken
			e.PC = int(s.Target)
			e.rpc = r
		}

	case isa.OpExit:
		adv = false
		e.exited |= mask
		if rem := e.Active &^ mask; rem != 0 {
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
		if mask == 0 {
			break
		}
		b := &e.tmp
		if s.Op == isa.OpSetP {
			b = e.srcRow(s.B, s.BSpec)
		} else {
			imm := uint64(s.Imm)
			for l := range b {
				b[l] = imm
			}
		}
		e.setPredLanes(s.PDst, mask, cmpMask(s.Cmp, e.srcRow(s.A, s.ASpec), b))

	case isa.OpPAnd:
		e.setPredLanes(s.PDst, mask, e.preds[s.PA]&e.preds[s.PB])
	case isa.OpPOr:
		e.setPredLanes(s.PDst, mask, e.preds[s.PA]|e.preds[s.PB])
	case isa.OpPNot:
		e.setPredLanes(s.PDst, mask, ^e.preds[s.PA])

	case isa.OpVoteAll:
		// All executing lanes hold PA (vacuously true on an empty mask).
		if mask&^e.preds[s.PA] == 0 {
			e.setPredLanes(s.PDst, mask, FullMask)
		} else {
			e.setPredLanes(s.PDst, mask, 0)
		}
	case isa.OpVoteAny:
		if mask&e.preds[s.PA] != 0 {
			e.setPredLanes(s.PDst, mask, FullMask)
		} else {
			e.setPredLanes(s.PDst, mask, 0)
		}

	case isa.OpBallot:
		v := uint64(mask & e.preds[s.PA])
		d := e.dstRow(s)
		for m := mask; m != 0; m &= m - 1 {
			d[bits.TrailingZeros32(m)] = v
		}

	case isa.OpShfl:
		if s.Dst < 0 {
			break
		}
		// Snapshot pre-instruction values of SrcA across the warp.
		buf := &e.tmp
		*buf = *e.srcRow(s.A, s.ASpec)
		b, d := e.srcRow(s.B, s.BSpec), e.row(int(s.Dst))
		if mask == FullMask {
			// Every source lane executes. Lane l reads b[l] before
			// writing d[l], so b aliasing d is safe.
			for l := range d {
				d[l] = buf[b[l]&31]
			}
			break
		}
		for m := mask; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			src := b[lane] & 31
			var v uint64
			if mask&(1<<src) != 0 {
				v = buf[src]
			}
			d[lane] = v
		}

	case isa.OpLdGlobal:
		info.IsGlobal = true
		a, d := e.srcRow(s.A, s.ASpec), e.dstRow(s)
		imm := uint64(s.Imm)
		for m := mask; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			addr := a[lane] + imm
			info.Addrs[lane] = addr
			d[lane] = e.Mem.LoadGlobal(addr, s.Width)
		}

	case isa.OpStGlobal:
		info.IsGlobal = true
		a, b := e.srcRow(s.A, s.ASpec), e.srcRow(s.B, s.BSpec)
		imm := uint64(s.Imm)
		for m := mask; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			addr := a[lane] + imm
			info.Addrs[lane] = addr
			e.Mem.StoreGlobal(addr, b[lane], s.Width)
		}

	case isa.OpAtomAdd:
		info.IsGlobal = true
		a, b, d := e.srcRow(s.A, s.ASpec), e.srcRow(s.B, s.BSpec), e.dstRow(s)
		imm := uint64(s.Imm)
		for m := mask; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			addr := a[lane] + imm
			info.Addrs[lane] = addr
			d[lane] = e.Mem.AtomicAdd(addr, b[lane], s.Width)
		}

	case isa.OpStShared, isa.OpStStage:
		buf, what := e.Shared, "shared"
		if s.Op == isa.OpStStage {
			buf, what = e.StageOut, "stage"
		}
		a, b := e.srcRow(s.A, s.ASpec), e.srcRow(s.B, s.BSpec)
		for m := mask; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			off := int64(a[lane]) + s.Imm
			if !stageStore(buf, off, b[lane], s.Width) {
				e.fail("%s store out of range: off %d", what, off)
				return true
			}
		}

	default:
		if !e.kernel(s, mask) && mask != 0 {
			// An op outside the ISA. The interpreter hits EvalALU's error
			// on the first active lane; mirror that, including the
			// no-active-lane case where the instruction retires as a nop.
			e.fail("%v", &isa.NonALUOpError{Op: s.Op})
			return true
		}
	}

	if adv && !e.Done {
		e.PC++
	}
	e.checkReconverge()
	return true
}

// kernel runs one register-producing op without side effects — the
// scalar ALU/SFU ops, sel, and the zero-padded ld.shared/ld.stage — as a
// loop over all 32 lanes. A full mask writes the destination row
// directly (each lane reads its sources before writing, so a source
// aliasing the destination is safe); a partial mask computes into the
// scratch row and merges the executing lanes. It reports false, writing
// nothing, for an op outside the ISA.
func (e *Exec) kernel(s *isa.Superop, mask uint32) bool {
	d := e.dstRow(s)
	out := d
	if mask != FullMask {
		out = &e.tmp
	}
	a, b := e.srcRow(s.A, s.ASpec), e.srcRow(s.B, s.BSpec)
	imm := uint64(s.Imm)
	switch s.Op {
	case isa.OpNop:
		*out = [WarpSize]uint64{}
	case isa.OpMov:
		*out = *a
	case isa.OpMovI:
		for l := range out {
			out[l] = imm
		}
	case isa.OpAdd:
		for l := range out {
			out[l] = a[l] + b[l]
		}
	case isa.OpAddI:
		for l := range out {
			out[l] = a[l] + imm
		}
	case isa.OpSub:
		for l := range out {
			out[l] = a[l] - b[l]
		}
	case isa.OpSubI:
		for l := range out {
			out[l] = a[l] - imm
		}
	case isa.OpMul:
		for l := range out {
			out[l] = a[l] * b[l]
		}
	case isa.OpMulI:
		for l := range out {
			out[l] = a[l] * imm
		}
	case isa.OpMad:
		c := e.srcRow(s.C, s.CSpec)
		for l := range out {
			out[l] = a[l]*b[l] + c[l]
		}
	case isa.OpMin:
		for l := range out {
			out[l] = min(a[l], b[l])
		}
	case isa.OpMax:
		for l := range out {
			out[l] = max(a[l], b[l])
		}
	case isa.OpAnd:
		for l := range out {
			out[l] = a[l] & b[l]
		}
	case isa.OpAndI:
		for l := range out {
			out[l] = a[l] & imm
		}
	case isa.OpOr:
		for l := range out {
			out[l] = a[l] | b[l]
		}
	case isa.OpOrI:
		for l := range out {
			out[l] = a[l] | imm
		}
	case isa.OpXor:
		for l := range out {
			out[l] = a[l] ^ b[l]
		}
	case isa.OpXorI:
		for l := range out {
			out[l] = a[l] ^ imm
		}
	case isa.OpNot:
		for l := range out {
			out[l] = ^a[l]
		}
	case isa.OpShl:
		for l := range out {
			out[l] = a[l] << (b[l] & 63)
		}
	case isa.OpShlI:
		for l := range out {
			out[l] = a[l] << (imm & 63)
		}
	case isa.OpShr:
		for l := range out {
			out[l] = a[l] >> (b[l] & 63)
		}
	case isa.OpShrI:
		for l := range out {
			out[l] = a[l] >> (imm & 63)
		}
	case isa.OpSext:
		for l := range out {
			out[l] = isa.SignExtend(a[l], s.Width)
		}
	case isa.OpSfu:
		for l := range out {
			out[l] = isa.SFUMix(a[l])
		}
	case isa.OpCtz:
		for l := range out {
			out[l] = uint64(bits.TrailingZeros64(a[l]))
		}
	case isa.OpSel:
		p := e.preds[s.PA]
		for l := range out {
			if p>>l&1 != 0 {
				out[l] = a[l]
			} else {
				out[l] = b[l]
			}
		}
	case isa.OpLdShared, isa.OpLdStage:
		buf := e.Shared
		if s.Op == isa.OpLdStage {
			buf = e.StageIn
		}
		for l := range out {
			out[l] = stageLoad(buf, int64(a[l])+s.Imm, s.Width)
		}
	default:
		return false
	}
	if out != d {
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			d[l] = out[l]
		}
	}
	return true
}
