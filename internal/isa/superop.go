package isa

// This file implements the predecode pass: at kernel load a Program is
// compiled once into a flat []Superop — dense decoded-instruction records
// with operands resolved to direct register-file indices, branch and
// reconvergence targets precomputed, and scoreboard bitmasks ready for
// single AND/OR dependence checks. The per-cycle hot loop then performs a
// single indexed dispatch per issued instruction instead of re-walking
// Instr fields through layered switch statements (Reg.IsGeneral, RegNone
// checks, Op.Class table chases, on-demand post-dominator lookups).
//
// Superop index == PC. The identity mapping keeps the SIMT divergence
// stack, snapshots, and the invariant auditor expressed in program
// counters, so a decoded and an interpreted execution are byte-identical
// in every serialized or observable structure.

// Superop is one pre-decoded instruction. It is immutable after
// predecode and shared by every warp executing the program (across
// simulators too: Decoded is cached on the Program like IPDom).
type Superop struct {
	Op    Op
	Class Class
	Cmp   CmpOp
	Width uint8

	// Guard predicate, as on Instr.
	Guard    Pred
	GuardNeg bool

	// A/B/C are SrcA/SrcB/SrcC resolved to register-file indices: the
	// general file when the Spec flag is false, the special file when
	// true. Unused operands (RegNone) resolve to the always-zero special
	// register, so operand readers need no RegNone branch.
	ASpec, BSpec, CSpec bool
	A, B, C             uint16

	// Dst is the general destination register index, or -1 when the
	// instruction writes no general register.
	Dst int16

	PDst, PA, PB Pred

	Imm    int64
	Target int32

	// RPC is the precomputed reconvergence point (immediate
	// post-dominator) used by Brab; the interpreter looks this up in the
	// IPDom table per execution.
	RPC int32

	// PC is the instruction's own index (superop index == PC).
	PC int32

	// Issue-path flags, precomputed from the op so the scheduler does no
	// opInfo table walks.
	GlobalMem bool // accesses the cache hierarchy (ld/st.global, atom)
	StoreOp   bool // writes memory
	LoadOp    bool // produces a register value from memory

	// Scoreboard masks over the 256 general registers and the predicate
	// registers, mirroring core.RegMask's layout: Use covers every
	// register the instruction reads or writes (sources, destinations,
	// guard and predicate operands — the RAW/WAW conflict set), Set
	// covers the destinations it marks pending at issue and releases at
	// writeback.
	UseG [4]uint64
	UseP uint8
	SetG [4]uint64
	SetP uint8

	// In points at the original instruction, for diagnostics and
	// disassembly.
	In *Instr
}

// Decoded is a predecoded program: Ops[i] is the superop form of
// Prog.Code[i].
type Decoded struct {
	Prog *Program
	Ops  []Superop
}

// Decoded returns the predecoded form of p, computing and caching it on
// first use. Safe for concurrent use (programs are immutable after
// assembly and shared across simulators in parallel sweeps).
func (p *Program) Decoded() *Decoded {
	p.decOnce.Do(func() { p.dec = decodeProgram(p) })
	return p.dec
}

// resolveReg maps a source operand to its register-file slot. RegNone
// reads as zero, which is exactly what the always-zero special register
// provides.
func resolveReg(r Reg) (idx uint16, spec bool) {
	switch {
	case r == RegNone:
		return uint16(RegZero.SpecialIndex()), true
	case r.IsGeneral():
		return uint16(r), false
	default:
		return uint16(r.SpecialIndex()), true
	}
}

func decodeProgram(p *Program) *Decoded {
	ipdom := p.IPDom()
	d := &Decoded{Prog: p, Ops: make([]Superop, len(p.Code))}
	for i := range p.Code {
		in := &p.Code[i]
		s := &d.Ops[i]
		s.Op = in.Op
		s.Class = in.Op.Class()
		s.Cmp = in.Cmp
		s.Width = in.Width
		s.Guard, s.GuardNeg = in.Guard, in.GuardNeg

		s.A, s.ASpec = resolveReg(in.SrcA)
		s.B, s.BSpec = resolveReg(in.SrcB)
		s.C, s.CSpec = resolveReg(in.SrcC)
		s.Dst = -1
		if in.Dst != RegNone && in.Dst.IsGeneral() && in.Dst.GeneralIndex() < 256 {
			s.Dst = int16(in.Dst.GeneralIndex())
		}
		s.PDst, s.PA, s.PB = in.PDst, in.PA, in.PB
		s.Imm = in.Imm
		s.Target = in.Target
		s.RPC = int32(ipdom[i])
		s.PC = int32(i)

		s.GlobalMem = in.Op.IsGlobalMem()
		s.StoreOp = in.Op.IsStore()
		s.LoadOp = in.Op.IsLoad()

		// Conflict set: every general register and predicate the
		// instruction touches (sources and destinations; the guard and
		// predicate operands). Predicate bits are uint8 shifts, so a
		// malformed predicate number shifts out of range and sets nothing.
		for _, r := range [...]Reg{in.SrcA, in.SrcB, in.SrcC, in.Dst} {
			if r != RegNone && r.IsGeneral() && r.GeneralIndex() < 256 {
				gi := r.GeneralIndex()
				s.UseG[gi/64] |= 1 << (gi % 64)
			}
		}
		for _, pr := range [...]Pred{in.Guard, in.PA, in.PB, in.PDst} {
			if pr != PredNone {
				s.UseP |= 1 << pr
			}
		}
		// Destination set: what issue marks pending and writeback clears.
		if s.Dst >= 0 {
			s.SetG[s.Dst/64] |= 1 << (uint(s.Dst) % 64)
		}
		if in.PDst != PredNone {
			s.SetP |= 1 << in.PDst
		}

		s.In = in
	}
	return d
}
