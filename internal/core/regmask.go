package core

import "github.com/caba-sim/caba/internal/isa"

// RegMask is a scoreboard bitset over the general registers and predicate
// registers of one warp (or one assist-warp context). It is embedded by
// value in warp contexts and AWT entries so scoreboard tracking does not
// allocate.
type RegMask struct {
	g [4]uint64 // 256 general registers
	p uint8     // predicate registers
}

// SetReg marks a general register pending.
func (m *RegMask) SetReg(r isa.Reg) {
	if r != isa.RegNone && r.IsGeneral() {
		i := r.GeneralIndex()
		m.g[i/64] |= 1 << (i % 64)
	}
}

// ClearReg releases a general register.
func (m *RegMask) ClearReg(r isa.Reg) {
	if r != isa.RegNone && r.IsGeneral() {
		i := r.GeneralIndex()
		m.g[i/64] &^= 1 << (i % 64)
	}
}

// HasReg reports whether a general register is pending.
func (m *RegMask) HasReg(r isa.Reg) bool {
	if r == isa.RegNone || !r.IsGeneral() {
		return false
	}
	i := r.GeneralIndex()
	return m.g[i/64]&(1<<(i%64)) != 0
}

// SetPred marks a predicate register pending.
func (m *RegMask) SetPred(p isa.Pred) {
	if p != isa.PredNone {
		m.p |= 1 << p
	}
}

// ClearPred releases a predicate register.
func (m *RegMask) ClearPred(p isa.Pred) {
	if p != isa.PredNone {
		m.p &^= 1 << p
	}
}

// HasPred reports whether a predicate register is pending.
func (m *RegMask) HasPred(p isa.Pred) bool {
	return p != isa.PredNone && m.p&(1<<p) != 0
}

// Empty reports whether nothing is pending.
func (m *RegMask) Empty() bool {
	return m.g[0]|m.g[1]|m.g[2]|m.g[3] == 0 && m.p == 0
}

// Conflicts reports whether issuing in must wait for pending writes
// (RAW on sources, guard and predicate reads; WAW on destinations).
func (m *RegMask) Conflicts(in *isa.Instr) bool {
	if m.Empty() {
		return false
	}
	if m.HasReg(in.SrcA) || m.HasReg(in.SrcB) || m.HasReg(in.SrcC) || m.HasReg(in.Dst) {
		return true
	}
	if m.HasPred(in.Guard) || m.HasPred(in.PA) || m.HasPred(in.PB) || m.HasPred(in.PDst) {
		return true
	}
	return false
}

// MarkDsts records in's destinations as pending.
func (m *RegMask) MarkDsts(in *isa.Instr) {
	m.SetReg(in.Dst)
	m.SetPred(in.PDst)
}

// ClearDsts releases in's destinations.
func (m *RegMask) ClearDsts(in *isa.Instr) {
	m.ClearReg(in.Dst)
	m.ClearPred(in.PDst)
}

// ConflictsSop is Conflicts on a predecoded instruction: the superop's
// Use masks cover exactly the registers Conflicts probes field by field,
// so the check collapses to word-wide ANDs.
func (m *RegMask) ConflictsSop(s *isa.Superop) bool {
	return (m.g[0]&s.UseG[0])|(m.g[1]&s.UseG[1])|
		(m.g[2]&s.UseG[2])|(m.g[3]&s.UseG[3]) != 0 ||
		m.p&s.UseP != 0
}

// MarkSop is MarkDsts on a predecoded instruction.
func (m *RegMask) MarkSop(s *isa.Superop) {
	m.g[0] |= s.SetG[0]
	m.g[1] |= s.SetG[1]
	m.g[2] |= s.SetG[2]
	m.g[3] |= s.SetG[3]
	m.p |= s.SetP
}

// ClearSop is ClearDsts on a predecoded instruction.
func (m *RegMask) ClearSop(s *isa.Superop) {
	m.g[0] &^= s.SetG[0]
	m.g[1] &^= s.SetG[1]
	m.g[2] &^= s.SetG[2]
	m.g[3] &^= s.SetG[3]
	m.p &^= s.SetP
}
