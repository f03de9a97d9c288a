package isa

import "fmt"

// Builder constructs Programs programmatically. It tracks forward label
// references and the highest general register touched so that NumReg is
// computed automatically (callers may still raise it, e.g. to model register
// pressure). The zero value is not usable; call NewBuilder.
type Builder struct {
	name    string
	code    []Instr
	labels  map[string]int
	fixups  []fixup
	maxReg  int
	lastErr error
}

type fixup struct {
	instr int
	label string
}

// NewBuilder returns a Builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, labels: make(map[string]int), maxReg: -1}
}

func (b *Builder) touch(rs ...Reg) {
	for _, r := range rs {
		if r != RegNone && r.IsGeneral() && r.GeneralIndex() > b.maxReg {
			b.maxReg = r.GeneralIndex()
		}
	}
}

func (b *Builder) emit(in Instr) *Builder {
	b.touch(in.Dst, in.SrcA, in.SrcB, in.SrcC)
	b.code = append(b.code, in)
	return b
}

// Label defines a label at the current position.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup && b.lastErr == nil {
		b.lastErr = fmt.Errorf("isa: duplicate label %q", name)
	}
	b.labels[name] = len(b.code)
	return b
}

// WithGuard predicates the most recently emitted instruction.
func (b *Builder) WithGuard(p Pred, neg bool) *Builder {
	if len(b.code) == 0 {
		if b.lastErr == nil {
			b.lastErr = fmt.Errorf("isa: WithGuard on empty program")
		}
		return b
	}
	last := &b.code[len(b.code)-1]
	last.Guard, last.GuardNeg = p, neg
	return b
}

// --- ALU ---

// Mov emits dst = src.
func (b *Builder) Mov(dst, src Reg) *Builder {
	return b.emit(Instr{Op: OpMov, Dst: dst, SrcA: src, SrcB: RegNone, SrcC: RegNone, Guard: PredNone, PDst: PredNone, PA: PredNone, PB: PredNone})
}

// MovI emits dst = imm.
func (b *Builder) MovI(dst Reg, imm int64) *Builder {
	return b.emit(Instr{Op: OpMovI, Dst: dst, SrcA: RegNone, SrcB: RegNone, SrcC: RegNone, Imm: imm, Guard: PredNone, PDst: PredNone, PA: PredNone, PB: PredNone})
}

func (b *Builder) alu2(op Op, dst, a, c Reg) *Builder {
	return b.emit(Instr{Op: op, Dst: dst, SrcA: a, SrcB: c, SrcC: RegNone, Guard: PredNone, PDst: PredNone, PA: PredNone, PB: PredNone})
}

func (b *Builder) aluI(op Op, dst, a Reg, imm int64) *Builder {
	return b.emit(Instr{Op: op, Dst: dst, SrcA: a, SrcB: RegNone, SrcC: RegNone, Imm: imm, Guard: PredNone, PDst: PredNone, PA: PredNone, PB: PredNone})
}

// Add emits dst = a + c.
func (b *Builder) Add(dst, a, c Reg) *Builder { return b.alu2(OpAdd, dst, a, c) }

// AddI emits dst = a + imm.
func (b *Builder) AddI(dst, a Reg, imm int64) *Builder { return b.aluI(OpAddI, dst, a, imm) }

// Sub emits dst = a - c.
func (b *Builder) Sub(dst, a, c Reg) *Builder { return b.alu2(OpSub, dst, a, c) }

// SubI emits dst = a - imm.
func (b *Builder) SubI(dst, a Reg, imm int64) *Builder { return b.aluI(OpSubI, dst, a, imm) }

// Mul emits dst = a * c.
func (b *Builder) Mul(dst, a, c Reg) *Builder { return b.alu2(OpMul, dst, a, c) }

// MulI emits dst = a * imm.
func (b *Builder) MulI(dst, a Reg, imm int64) *Builder { return b.aluI(OpMulI, dst, a, imm) }

// Mad emits dst = a*x + y.
func (b *Builder) Mad(dst, a, x, y Reg) *Builder {
	return b.emit(Instr{Op: OpMad, Dst: dst, SrcA: a, SrcB: x, SrcC: y, Guard: PredNone, PDst: PredNone, PA: PredNone, PB: PredNone})
}

// Min emits dst = min(a, c) treating operands as unsigned.
func (b *Builder) Min(dst, a, c Reg) *Builder { return b.alu2(OpMin, dst, a, c) }

// Max emits dst = max(a, c) treating operands as unsigned.
func (b *Builder) Max(dst, a, c Reg) *Builder { return b.alu2(OpMax, dst, a, c) }

// And emits dst = a & c.
func (b *Builder) And(dst, a, c Reg) *Builder { return b.alu2(OpAnd, dst, a, c) }

// AndI emits dst = a & imm.
func (b *Builder) AndI(dst, a Reg, imm int64) *Builder { return b.aluI(OpAndI, dst, a, imm) }

// Or emits dst = a | c.
func (b *Builder) Or(dst, a, c Reg) *Builder { return b.alu2(OpOr, dst, a, c) }

// OrI emits dst = a | imm.
func (b *Builder) OrI(dst, a Reg, imm int64) *Builder { return b.aluI(OpOrI, dst, a, imm) }

// Xor emits dst = a ^ c.
func (b *Builder) Xor(dst, a, c Reg) *Builder { return b.alu2(OpXor, dst, a, c) }

// XorI emits dst = a ^ imm.
func (b *Builder) XorI(dst, a Reg, imm int64) *Builder { return b.aluI(OpXorI, dst, a, imm) }

// Not emits dst = ^a.
func (b *Builder) Not(dst, a Reg) *Builder {
	return b.emit(Instr{Op: OpNot, Dst: dst, SrcA: a, SrcB: RegNone, SrcC: RegNone, Guard: PredNone, PDst: PredNone, PA: PredNone, PB: PredNone})
}

// Shl emits dst = a << c.
func (b *Builder) Shl(dst, a, c Reg) *Builder { return b.alu2(OpShl, dst, a, c) }

// ShlI emits dst = a << imm.
func (b *Builder) ShlI(dst, a Reg, imm int64) *Builder { return b.aluI(OpShlI, dst, a, imm) }

// Shr emits dst = a >> c (logical).
func (b *Builder) Shr(dst, a, c Reg) *Builder { return b.alu2(OpShr, dst, a, c) }

// ShrI emits dst = a >> imm (logical).
func (b *Builder) ShrI(dst, a Reg, imm int64) *Builder { return b.aluI(OpShrI, dst, a, imm) }

// Sext emits dst = sign-extend of the low width bytes of a.
func (b *Builder) Sext(dst, a Reg, width uint8) *Builder {
	return b.emit(Instr{Op: OpSext, Dst: dst, SrcA: a, SrcB: RegNone, SrcC: RegNone, Width: width, Guard: PredNone, PDst: PredNone, PA: PredNone, PB: PredNone})
}

// Sfu emits dst = sfu(a), the long-latency special-function op.
func (b *Builder) Sfu(dst, a Reg) *Builder {
	return b.emit(Instr{Op: OpSfu, Dst: dst, SrcA: a, SrcB: RegNone, SrcC: RegNone, Guard: PredNone, PDst: PredNone, PA: PredNone, PB: PredNone})
}

// --- Predicates ---

// SetP emits pd = cmp(a, c).
func (b *Builder) SetP(cmp CmpOp, pd Pred, a, c Reg) *Builder {
	return b.emit(Instr{Op: OpSetP, Cmp: cmp, Dst: RegNone, SrcA: a, SrcB: c, SrcC: RegNone, PDst: pd, PA: PredNone, PB: PredNone, Guard: PredNone})
}

// SetPI emits pd = cmp(a, imm).
func (b *Builder) SetPI(cmp CmpOp, pd Pred, a Reg, imm int64) *Builder {
	return b.emit(Instr{Op: OpSetPI, Cmp: cmp, Dst: RegNone, SrcA: a, SrcB: RegNone, SrcC: RegNone, Imm: imm, PDst: pd, PA: PredNone, PB: PredNone, Guard: PredNone})
}

// PAnd emits pd = pa && pb.
func (b *Builder) PAnd(pd, pa, pb Pred) *Builder {
	return b.emit(Instr{Op: OpPAnd, Dst: RegNone, SrcA: RegNone, SrcB: RegNone, SrcC: RegNone, PDst: pd, PA: pa, PB: pb, Guard: PredNone})
}

// POr emits pd = pa || pb.
func (b *Builder) POr(pd, pa, pb Pred) *Builder {
	return b.emit(Instr{Op: OpPOr, Dst: RegNone, SrcA: RegNone, SrcB: RegNone, SrcC: RegNone, PDst: pd, PA: pa, PB: pb, Guard: PredNone})
}

// PNot emits pd = !pa.
func (b *Builder) PNot(pd, pa Pred) *Builder {
	return b.emit(Instr{Op: OpPNot, Dst: RegNone, SrcA: RegNone, SrcB: RegNone, SrcC: RegNone, PDst: pd, PA: pa, PB: PredNone, Guard: PredNone})
}

// Sel emits dst = pa ? a : c.
func (b *Builder) Sel(dst Reg, pa Pred, a, c Reg) *Builder {
	return b.emit(Instr{Op: OpSel, Dst: dst, SrcA: a, SrcB: c, SrcC: RegNone, PDst: PredNone, PA: pa, PB: PredNone, Guard: PredNone})
}

// VoteAll emits pd = AND of pa across active lanes. This is the warp-wide
// "global predicate register" the paper adds for compression encoding tests.
func (b *Builder) VoteAll(pd, pa Pred) *Builder {
	return b.emit(Instr{Op: OpVoteAll, Dst: RegNone, SrcA: RegNone, SrcB: RegNone, SrcC: RegNone, PDst: pd, PA: pa, PB: PredNone, Guard: PredNone})
}

// VoteAny emits pd = OR of pa across active lanes.
func (b *Builder) VoteAny(pd, pa Pred) *Builder {
	return b.emit(Instr{Op: OpVoteAny, Dst: RegNone, SrcA: RegNone, SrcB: RegNone, SrcC: RegNone, PDst: pd, PA: pa, PB: PredNone, Guard: PredNone})
}

// Ballot emits dst = bitmask of pa across the warp (bit i = lane i's pa;
// inactive lanes contribute 0). This is PTX vote.ballot.
func (b *Builder) Ballot(dst Reg, pa Pred) *Builder {
	return b.emit(Instr{Op: OpBallot, Dst: dst, SrcA: RegNone, SrcB: RegNone, SrcC: RegNone, PDst: PredNone, PA: pa, PB: PredNone, Guard: PredNone})
}

// Shfl emits dst = a's value in lane (idx & 31), reading pre-instruction
// register state (PTX shfl.idx). Inactive source lanes supply 0.
func (b *Builder) Shfl(dst, a, idx Reg) *Builder {
	return b.emit(Instr{Op: OpShfl, Dst: dst, SrcA: a, SrcB: idx, SrcC: RegNone, PDst: PredNone, PA: PredNone, PB: PredNone, Guard: PredNone})
}

// Ctz emits dst = count of trailing zeros of a (64 when a == 0); PTX
// bfind/clz equivalent used to locate the first set ballot bit.
func (b *Builder) Ctz(dst, a Reg) *Builder {
	return b.emit(Instr{Op: OpCtz, Dst: dst, SrcA: a, SrcB: RegNone, SrcC: RegNone, PDst: PredNone, PA: PredNone, PB: PredNone, Guard: PredNone})
}

// --- Memory ---

func (b *Builder) load(op Op, dst, addr Reg, off int64, width uint8) *Builder {
	return b.emit(Instr{Op: op, Dst: dst, SrcA: addr, SrcB: RegNone, SrcC: RegNone, Imm: off, Width: width, Guard: PredNone, PDst: PredNone, PA: PredNone, PB: PredNone})
}

func (b *Builder) store(op Op, addr Reg, off int64, src Reg, width uint8) *Builder {
	return b.emit(Instr{Op: op, Dst: RegNone, SrcA: addr, SrcB: src, SrcC: RegNone, Imm: off, Width: width, Guard: PredNone, PDst: PredNone, PA: PredNone, PB: PredNone})
}

// LdGlobal emits dst = global[addr+off] of width bytes.
func (b *Builder) LdGlobal(dst, addr Reg, off int64, width uint8) *Builder {
	return b.load(OpLdGlobal, dst, addr, off, width)
}

// StGlobal emits global[addr+off] = src of width bytes.
func (b *Builder) StGlobal(addr Reg, off int64, src Reg, width uint8) *Builder {
	return b.store(OpStGlobal, addr, off, src, width)
}

// LdShared emits dst = shared[addr+off].
func (b *Builder) LdShared(dst, addr Reg, off int64, width uint8) *Builder {
	return b.load(OpLdShared, dst, addr, off, width)
}

// StShared emits shared[addr+off] = src.
func (b *Builder) StShared(addr Reg, off int64, src Reg, width uint8) *Builder {
	return b.store(OpStShared, addr, off, src, width)
}

// AtomAdd emits dst = global[addr+off]; global[addr+off] += src.
func (b *Builder) AtomAdd(dst, addr Reg, off int64, src Reg, width uint8) *Builder {
	return b.emit(Instr{Op: OpAtomAdd, Dst: dst, SrcA: addr, SrcB: src, SrcC: RegNone, Imm: off, Width: width, Guard: PredNone, PDst: PredNone, PA: PredNone, PB: PredNone})
}

// LdStage emits dst = stage[addr+off] (assist-warp staging buffer read).
func (b *Builder) LdStage(dst, addr Reg, off int64, width uint8) *Builder {
	return b.load(OpLdStage, dst, addr, off, width)
}

// StStage emits out[addr+off] = src (assist-warp output buffer write).
func (b *Builder) StStage(addr Reg, off int64, src Reg, width uint8) *Builder {
	return b.store(OpStStage, addr, off, src, width)
}

// --- Control ---

// Bra emits an unconditional branch to label.
func (b *Builder) Bra(label string) *Builder {
	b.fixups = append(b.fixups, fixup{len(b.code), label})
	return b.emit(Instr{Op: OpBra, Dst: RegNone, SrcA: RegNone, SrcB: RegNone, SrcC: RegNone, Guard: PredNone, PDst: PredNone, PA: PredNone, PB: PredNone})
}

// BraP emits a predicated, reconverging branch: lanes where p (xor neg)
// holds jump to label, others fall through; the SIMT stack reconverges at
// the immediate post-dominator chosen by the hardware model.
func (b *Builder) BraP(p Pred, neg bool, label string) *Builder {
	b.fixups = append(b.fixups, fixup{len(b.code), label})
	return b.emit(Instr{Op: OpBrab, Dst: RegNone, SrcA: RegNone, SrcB: RegNone, SrcC: RegNone, Guard: p, GuardNeg: neg, PDst: PredNone, PA: PredNone, PB: PredNone})
}

// Bar emits a CTA-wide barrier.
func (b *Builder) Bar() *Builder {
	return b.emit(Instr{Op: OpBar, Dst: RegNone, SrcA: RegNone, SrcB: RegNone, SrcC: RegNone, Guard: PredNone, PDst: PredNone, PA: PredNone, PB: PredNone})
}

// Exit emits thread termination.
func (b *Builder) Exit() *Builder {
	return b.emit(Instr{Op: OpExit, Dst: RegNone, SrcA: RegNone, SrcB: RegNone, SrcC: RegNone, Guard: PredNone, PDst: PredNone, PA: PredNone, PB: PredNone})
}

// Nop emits a no-op (consumes an issue slot and ALU cycle).
func (b *Builder) Nop() *Builder {
	return b.emit(Instr{Op: OpNop, Dst: RegNone, SrcA: RegNone, SrcB: RegNone, SrcC: RegNone, Guard: PredNone, PDst: PredNone, PA: PredNone, PB: PredNone})
}

// Build resolves labels and returns the validated program.
func (b *Builder) Build() (*Program, error) {
	if b.lastErr != nil {
		return nil, b.lastErr
	}
	for _, f := range b.fixups {
		target, ok := b.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("isa: program %q: undefined label %q", b.name, f.label)
		}
		b.code[f.instr].Target = int32(target)
	}
	p := &Program{
		Name:   b.name,
		Code:   b.code,
		NumReg: b.maxReg + 1,
		Labels: b.labels,
	}
	if p.NumReg == 0 {
		p.NumReg = 1
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is Build that panics on error; for static program construction.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
