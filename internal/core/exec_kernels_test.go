package core

import (
	"fmt"
	"testing"
	"unsafe"

	"github.com/caba-sim/caba/internal/isa"
)

// TestFullWarpKernelsMatchInterpreter drives every warp-wide kernel of
// the decoded engine against the interpreter: each ALU op, sel, ballot,
// the predicate ops and votes, setp/setp.i under every comparison, shfl
// with per-lane and uniform lane indices, and ld.stage at and past the
// end of StageIn (zero padding). A and B range over general registers
// and the special registers %lane, %tid and %zero; the destination is
// either a fresh register or the A source (aliasing); and the op runs
// unguarded and under full, partial, negated-partial and empty guards,
// from a full and a partial launch mask.
func TestFullWarpKernelsMatchInterpreter(t *testing.T) {
	type op struct {
		name string
		emit func(b *isa.Builder, d, a, c isa.Reg)
	}
	ops := []op{
		{"mov", func(b *isa.Builder, d, a, c isa.Reg) { b.Mov(d, a) }},
		{"movi", func(b *isa.Builder, d, a, c isa.Reg) { b.MovI(d, -7) }},
		{"add", func(b *isa.Builder, d, a, c isa.Reg) { b.Add(d, a, c) }},
		{"addi", func(b *isa.Builder, d, a, c isa.Reg) { b.AddI(d, a, 0x1234) }},
		{"sub", func(b *isa.Builder, d, a, c isa.Reg) { b.Sub(d, a, c) }},
		{"subi", func(b *isa.Builder, d, a, c isa.Reg) { b.SubI(d, a, -99) }},
		{"mul", func(b *isa.Builder, d, a, c isa.Reg) { b.Mul(d, a, c) }},
		{"muli", func(b *isa.Builder, d, a, c isa.Reg) { b.MulI(d, a, 77) }},
		{"mad", func(b *isa.Builder, d, a, c isa.Reg) { b.Mad(d, a, c, isa.R(3)) }},
		{"mad-special-c", func(b *isa.Builder, d, a, c isa.Reg) { b.Mad(d, a, c, isa.RegLane) }},
		{"min", func(b *isa.Builder, d, a, c isa.Reg) { b.Min(d, a, c) }},
		{"max", func(b *isa.Builder, d, a, c isa.Reg) { b.Max(d, a, c) }},
		{"and", func(b *isa.Builder, d, a, c isa.Reg) { b.And(d, a, c) }},
		{"andi", func(b *isa.Builder, d, a, c isa.Reg) { b.AndI(d, a, 0xF0F) }},
		{"or", func(b *isa.Builder, d, a, c isa.Reg) { b.Or(d, a, c) }},
		{"ori", func(b *isa.Builder, d, a, c isa.Reg) { b.OrI(d, a, 0x8000) }},
		{"xor", func(b *isa.Builder, d, a, c isa.Reg) { b.Xor(d, a, c) }},
		{"xori", func(b *isa.Builder, d, a, c isa.Reg) { b.XorI(d, a, 0x5555) }},
		{"not", func(b *isa.Builder, d, a, c isa.Reg) { b.Not(d, a) }},
		{"shl", func(b *isa.Builder, d, a, c isa.Reg) { b.Shl(d, a, c) }},
		{"shli", func(b *isa.Builder, d, a, c isa.Reg) { b.ShlI(d, a, 67) }},
		{"shr", func(b *isa.Builder, d, a, c isa.Reg) { b.Shr(d, a, c) }},
		{"shri", func(b *isa.Builder, d, a, c isa.Reg) { b.ShrI(d, a, 13) }},
		{"sext", func(b *isa.Builder, d, a, c isa.Reg) { b.Sext(d, a, 1) }},
		{"sfu", func(b *isa.Builder, d, a, c isa.Reg) { b.Sfu(d, a) }},
		{"ctz", func(b *isa.Builder, d, a, c isa.Reg) { b.Ctz(d, a) }},
		{"nop", func(b *isa.Builder, d, a, c isa.Reg) { b.Nop() }},
		{"sel", func(b *isa.Builder, d, a, c isa.Reg) { b.Sel(d, isa.P(0), a, c) }},
		{"ballot", func(b *isa.Builder, d, a, c isa.Reg) { b.Ballot(d, isa.P(0)) }},
		{"pand", func(b *isa.Builder, d, a, c isa.Reg) { b.PAnd(isa.P(3), isa.P(0), isa.P(1)) }},
		{"por", func(b *isa.Builder, d, a, c isa.Reg) { b.POr(isa.P(0), isa.P(0), isa.P(2)) }},
		{"pnot", func(b *isa.Builder, d, a, c isa.Reg) { b.PNot(isa.P(3), isa.P(0)) }},
		{"vote.all", func(b *isa.Builder, d, a, c isa.Reg) { b.VoteAll(isa.P(3), isa.P(1)) }},
		{"vote.any", func(b *isa.Builder, d, a, c isa.Reg) { b.VoteAny(isa.P(3), isa.P(0)) }},
		{"shfl", func(b *isa.Builder, d, a, c isa.Reg) { b.Shfl(d, a, c) }},
		{"shfl-uniform", func(b *isa.Builder, d, a, c isa.Reg) { b.Shfl(d, a, isa.R(4)) }},
		{"ld.stage", func(b *isa.Builder, d, a, c isa.Reg) { b.LdStage(d, isa.R(5), 0, 4) }},
		{"ld.stage-end", func(b *isa.Builder, d, a, c isa.Reg) { b.LdStage(d, isa.R(5), 3, 8) }},
		{"ld.stage-past", func(b *isa.Builder, d, a, c isa.Reg) { b.LdStage(d, isa.R(5), 100, 2) }},
		{"ld.stage-special", func(b *isa.Builder, d, a, c isa.Reg) { b.LdStage(d, a, 120, 8) }},
	}
	for cmp := isa.CmpEQ; cmp <= isa.CmpGES; cmp++ {
		cmp := cmp
		ops = append(ops,
			op{"setp." + cmp.String(), func(b *isa.Builder, d, a, c isa.Reg) { b.SetP(cmp, isa.P(3), a, c) }},
			op{"setp.i." + cmp.String(), func(b *isa.Builder, d, a, c isa.Reg) { b.SetPI(cmp, isa.P(0), a, -5) }},
		)
	}
	srcs := []isa.Reg{isa.R(1), isa.R(2), isa.RegLane, isa.RegTid, isa.RegZero}
	guards := []struct {
		name string
		p    isa.Pred
		neg  bool
	}{
		{"unguarded", isa.PredNone, false},
		{"full", isa.P(1), false},
		{"partial", isa.P(0), false},
		{"negated", isa.P(0), true},
		{"empty", isa.P(2), false},
	}
	for _, o := range ops {
		for _, a := range srcs {
			for _, c := range srcs {
				for _, d := range []isa.Reg{isa.R(6), a} {
					if !d.IsGeneral() {
						continue
					}
					for _, g := range guards {
						b := kernelPrologue()
						o.emit(b, d, a, c)
						if g.p != isa.PredNone {
							b.WithGuard(g.p, g.neg)
						}
						b.Exit()
						prog := b.MustBuild()
						for _, launch := range []uint32{FullMask, 0x0F0F00FF} {
							label := fmt.Sprintf("%s d=%v a=%v b=%v %s launch=%#x", o.name, d, a, c, g.name, launch)
							lockstep(t, label, prog, launch, nil)
						}
					}
				}
			}
		}
	}
}

// kernelPrologue seeds the registers and predicates the kernel cases
// read: r1 spans the full 64-bit range (signed and unsigned orders
// differ), r2 is a small per-lane value (shift counts, shfl lanes), r3
// is a third operand, r4 a uniform lane index, r5 a per-lane staging
// offset running past the end of StageIn; p0 holds in lanes 0-12, p1 in
// every lane, p2 in none.
func kernelPrologue() *isa.Builder {
	b := isa.NewBuilder("kernel")
	b.MulI(isa.R(1), isa.RegLane, -0x61C8864680B583EB)
	b.XorI(isa.R(1), isa.R(1), 0x3C)
	b.MulI(isa.R(2), isa.RegLane, 7)
	b.AndI(isa.R(2), isa.R(2), 63)
	b.AddI(isa.R(3), isa.RegTid, 5)
	b.MovI(isa.R(4), 9)
	b.ShlI(isa.R(5), isa.RegLane, 2)
	b.SetPI(isa.CmpLT, isa.P(0), isa.RegLane, 13)
	b.SetPI(isa.CmpLT, isa.P(1), isa.RegLane, 32)
	b.SetPI(isa.CmpGT, isa.P(2), isa.RegLane, 100)
	return b
}

// TestStageLoadMatchesBytewise pins stageLoad's one-load fast path
// against the byte-at-a-time definition: width bytes little-endian,
// bytes outside the buffer reading as zero.
func TestStageLoadMatchesBytewise(t *testing.T) {
	ref := func(buf []byte, off int64, width uint8) uint64 {
		var v uint64
		for i := 0; i < int(width); i++ {
			if idx := off + int64(i); idx >= 0 && idx < int64(len(buf)) {
				v |= uint64(buf[idx]) << (8 * i)
			}
		}
		return v
	}
	for n := 0; n <= 20; n++ {
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(0xA0 + i*13)
		}
		for off := int64(-9); off <= int64(n)+9; off++ {
			for width := uint8(0); width <= 10; width++ {
				if got, want := stageLoad(buf, off, width), ref(buf, off, width); got != want {
					t.Fatalf("len %d off %d width %d: %#x, want %#x", n, off, width, got, want)
				}
			}
		}
	}
}

// TestExecStaysSmall keeps Exec out of the 4 KB size class. The
// per-cycle warp scan reads every warp's header fields (Done, AtBarrier,
// PC, dec); 4 KB objects put all of those on the same L1 sets. With the
// 12x32 special file inlined, Exec is about 3.9 KB instead of 808 B, and
// `cabasim -app TBL -scale 0.05` (medians of three interleaved runs)
// took 1.96 s instead of 1.21 s under Base and 2.09 s instead of 1.53 s
// under CABA-Prefetch. Keep large per-warp state behind a pointer.
func TestExecStaysSmall(t *testing.T) {
	if n := unsafe.Sizeof(Exec{}); n > 1024 {
		t.Fatalf("Exec is %d bytes; keep it at most 1024", n)
	}
}
