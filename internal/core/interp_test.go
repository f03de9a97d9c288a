package core

import "github.com/caba-sim/caba/internal/isa"

// This file is the field-walking reference interpreter, the oracle the
// predecoded engine (exec_decoded.go) is tested against: lockstep steps
// both engines side by side and requires identical state after every
// instruction. It lives in test code because the simulator runs only the
// decoded engine.

// current returns the instruction the warp will execute next, or nil when
// the warp is done or stopped at a barrier.
func (e *Exec) current() *isa.Instr {
	if e.Done || e.AtBarrier || e.Err != nil {
		return nil
	}
	return &e.Prog.Code[e.PC]
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

// stepInterp is the reference interpreter: it re-walks Instr fields
// (RegNone checks, IsGeneral branches, per-lane EvalALU dispatch, the
// IPDom table) on every execution.
func (e *Exec) stepInterp() (StepInfo, bool) {
	in := e.current()
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
			r := e.Prog.IPDom()[e.PC]
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
