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

// Empty reports whether nothing is pending.
func (m *RegMask) Empty() bool {
	return m.g[0]|m.g[1]|m.g[2]|m.g[3] == 0 && m.p == 0
}

// ConflictsSop reports whether issuing s must wait for pending writes
// (RAW on sources, guard and predicate reads; WAW on destinations). The
// superop's Use masks cover exactly those registers, so the check is
// word-wide ANDs.
func (m *RegMask) ConflictsSop(s *isa.Superop) bool {
	return (m.g[0]&s.UseG[0])|(m.g[1]&s.UseG[1])|
		(m.g[2]&s.UseG[2])|(m.g[3]&s.UseG[3]) != 0 ||
		m.p&s.UseP != 0
}

// MarkSop records s's destinations as pending.
func (m *RegMask) MarkSop(s *isa.Superop) {
	m.g[0] |= s.SetG[0]
	m.g[1] |= s.SetG[1]
	m.g[2] |= s.SetG[2]
	m.g[3] |= s.SetG[3]
	m.p |= s.SetP
}

// ClearSop releases s's destinations.
func (m *RegMask) ClearSop(s *isa.Superop) {
	m.g[0] &^= s.SetG[0]
	m.g[1] &^= s.SetG[1]
	m.g[2] &^= s.SetG[2]
	m.g[3] &^= s.SetG[3]
	m.p &^= s.SetP
}
