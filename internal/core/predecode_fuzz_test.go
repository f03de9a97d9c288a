package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/caba-sim/caba/internal/isa"
)

// FuzzPredecode pins the decoded≡interpreter invariant (DESIGN.md §12):
// for random valid programs built through the isa.Builder API, the
// predecoded superop engine and the per-instruction interpreter must
// agree instruction by instruction on every piece of observable state —
// PC, active mask, divergence outcome, registers, predicates, error
// strings, and the StepInfo fields the pipeline consumes (ExecMask,
// Width, IsGlobal, and the per-lane addresses of active lanes; inactive
// lanes' Addrs are unspecified by the StepRef contract and excluded).
func FuzzPredecode(f *testing.F) {
	for s := int64(0); s < 8; s++ {
		f.Add(s)
	}
	// Seeds whose programs run warp-wide kernels with special-register
	// operands under full, partial and empty guard masks.
	for _, s := range []int64{41, 97, 1234, 65537} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		lockstep(t, fmt.Sprintf("seed %d", seed), randomProgram(rand.New(rand.NewSource(seed))), FullMask, nil)
	})
}

// lockstep runs prog on the predecoded engine and on the interpreter side
// by side, from the given launch mask, and fails t at the first
// divergence in the StepInfo fields the pipeline consumes, the
// architectural state (diffExecState) or global memory. Each engine gets
// a fresh Exec with small shared and staging buffers, a per-lane %tid and
// its own fuzzMem; setup, when non-nil, then runs on each Exec to install
// live-ins, special registers or other buffers. lockstep returns the
// decoded engine's Exec so the caller can check how the program ended.
func lockstep(t *testing.T, label string, prog *isa.Program, launch uint32, setup func(*Exec)) *Exec {
	t.Helper()
	mkExec := func() (*Exec, *fuzzMem) {
		e := NewExec(prog, launch)
		e.Shared = make([]byte, 256)
		e.StageIn = make([]byte, 128)
		e.StageOut = make([]byte, 128)
		for i := range e.StageIn {
			e.StageIn[i] = byte(i * 7)
		}
		for lane := 0; lane < WarpSize; lane++ {
			e.SetLaneSpecial(lane, isa.RegTid, uint64(lane*3+100))
		}
		m := &fuzzMem{data: make(map[uint64]byte)}
		e.Mem = m
		if setup != nil {
			setup(e)
		}
		return e, m
	}
	dec, decMem := mkExec()
	ref, refMem := mkExec()

	for step := 0; step < 1<<15; step++ {
		di, dok := dec.Step()
		ri, rok := ref.stepInterp()
		if dok != rok {
			t.Fatalf("%s step %d: decoded stepped=%v interp stepped=%v", label, step, dok, rok)
		}
		if !dok {
			// Both stopped: a barrier is released on both in lockstep
			// (single-warp CTA), anything else ends the program.
			if dec.AtBarrier && ref.AtBarrier {
				dec.ReleaseBarrier()
				ref.ReleaseBarrier()
				continue
			}
			break
		}
		if di.ExecMask != ri.ExecMask || di.Width != ri.Width || di.IsGlobal != ri.IsGlobal {
			t.Fatalf("%s step %d: StepInfo mismatch: decoded {mask %#x w %d g %v} interp {mask %#x w %d g %v}",
				label, step, di.ExecMask, di.Width, di.IsGlobal, ri.ExecMask, ri.Width, ri.IsGlobal)
		}
		if di.IsGlobal {
			for lane := 0; lane < WarpSize; lane++ {
				if di.ExecMask&(1<<lane) != 0 && di.Addrs[lane] != ri.Addrs[lane] {
					t.Fatalf("%s step %d lane %d: addr %#x vs %#x", label, step, lane, di.Addrs[lane], ri.Addrs[lane])
				}
			}
		}
		if diff := diffExecState(dec, ref); diff != "" {
			t.Fatalf("%s step %d: %s", label, step, diff)
		}
	}
	if diff := diffExecState(dec, ref); diff != "" {
		t.Fatalf("%s final: %s", label, diff)
	}
	if diff := decMem.diff(refMem); diff != "" {
		t.Fatalf("%s final: global memory: %s", label, diff)
	}
	return dec
}

// diffExecState compares every piece of architectural state the two
// engines are required to keep identical, returning "" on a match.
func diffExecState(a, b *Exec) string {
	if a.PC != b.PC || a.Active != b.Active || a.Done != b.Done || a.AtBarrier != b.AtBarrier {
		return fmt.Sprintf("control state: decoded {pc %d active %#x done %v bar %v} interp {pc %d active %#x done %v bar %v}",
			a.PC, a.Active, a.Done, a.AtBarrier, b.PC, b.Active, b.Done, b.AtBarrier)
	}
	ae, be := "", ""
	if a.Err != nil {
		ae = a.Err.Error()
	}
	if b.Err != nil {
		be = b.Err.Error()
	}
	if ae != be {
		return fmt.Sprintf("error: decoded %q interp %q", ae, be)
	}
	if a.Executed != b.Executed {
		return fmt.Sprintf("executed count: %d vs %d", a.Executed, b.Executed)
	}
	for lane := 0; lane < WarpSize; lane++ {
		for r := 0; r < a.Prog.NumReg; r++ {
			if a.Reg(lane, r) != b.Reg(lane, r) {
				return fmt.Sprintf("lane %d r%d: %#x vs %#x", lane, r, a.Reg(lane, r), b.Reg(lane, r))
			}
		}
	}
	if a.preds != b.preds {
		return fmt.Sprintf("preds: %#x vs %#x", a.preds, b.preds)
	}
	if len(a.Shared) > 0 || len(b.Shared) > 0 {
		if string(a.Shared) != string(b.Shared) {
			return "shared memory diverged"
		}
	}
	if string(a.StageOut) != string(b.StageOut) {
		return "staging output diverged"
	}
	return ""
}

// fuzzMem is a byte-granular functional memory; two instances fed the
// same store sequence hold identical contents. A byte never stored reads
// as a hash of its address, so loads see varied data without a fill.
type fuzzMem struct{ data map[uint64]byte }

func (m *fuzzMem) LoadGlobal(addr uint64, width uint8) uint64 {
	var v uint64
	for i := uint64(0); i < uint64(width); i++ {
		b, ok := m.data[addr+i]
		if !ok {
			b = byte((addr + i) * 0x9E3779B97F4A7C15 >> 56)
		}
		v |= uint64(b) << (8 * i)
	}
	return v
}

func (m *fuzzMem) StoreGlobal(addr, v uint64, width uint8) {
	for i := uint64(0); i < uint64(width); i++ {
		m.data[addr+i] = byte(v >> (8 * i))
	}
}

func (m *fuzzMem) AtomicAdd(addr, v uint64, width uint8) uint64 {
	old := m.LoadGlobal(addr, width)
	m.StoreGlobal(addr, old+v, width)
	return old
}

func (m *fuzzMem) diff(o *fuzzMem) string {
	for a, v := range m.data {
		if o.data[a] != v {
			return fmt.Sprintf("addr %#x: %#x vs %#x", a, v, o.data[a])
		}
	}
	for a, v := range o.data {
		if m.data[a] != v {
			return fmt.Sprintf("addr %#x: %#x vs %#x", a, m.data[a], v)
		}
	}
	return ""
}

// randomProgram builds a random valid program through the public Builder
// API: seeded registers and predicates, ALU/SFU/predicate/warp-wide ops
// (guarded and not), shared/stage/global memory traffic (including
// occasional deliberately out-of-range stage offsets, which must produce
// identical fail-fast errors in both engines), barriers, and nested
// forward branches so the SIMT stack diverges and reconverges.
func randomProgram(rng *rand.Rand) *isa.Program {
	const nRegs = 8
	b := isa.NewBuilder("fuzz-predecode")

	// Seed lanes with diverging values and predicates.
	for r := 0; r < nRegs; r++ {
		b.Mov(isa.R(r), isa.RegLane)
		b.MulI(isa.R(r), isa.R(r), int64(rng.Intn(77)+1))
		b.AddI(isa.R(r), isa.R(r), int64(rng.Intn(1<<12)))
	}
	for p := 0; p < isa.NumPredRegs; p++ {
		b.SetPI(isa.CmpLT, isa.P(p), isa.R(rng.Intn(nRegs)), int64(rng.Intn(2048)))
	}

	nChunks := rng.Intn(6) + 2
	for c := 0; c < nChunks; c++ {
		label := fmt.Sprintf("skip%d", c)
		branched := rng.Intn(3) != 0
		if branched {
			b.BraP(isa.P(rng.Intn(isa.NumPredRegs)), rng.Intn(2) == 0, label)
		}
		emitChunk(b, rng, nRegs)
		if branched {
			b.Label(label)
		}
	}
	// A tail chunk after the last reconvergence point.
	emitChunk(b, rng, nRegs)
	b.Exit()
	return b.MustBuild()
}

// emitChunk emits a straight-line run of random instructions.
func emitChunk(b *isa.Builder, rng *rand.Rand, nRegs int) {
	reg := func() isa.Reg { return isa.R(rng.Intn(nRegs)) }
	// src is a source operand: usually a general register, sometimes a
	// special one (per-lane %lane and %tid, or the zero register).
	src := func() isa.Reg {
		if rng.Intn(6) == 0 {
			return []isa.Reg{isa.RegLane, isa.RegTid, isa.RegZero}[rng.Intn(3)]
		}
		return reg()
	}
	pred := func() isa.Pred { return isa.P(rng.Intn(isa.NumPredRegs)) }
	width := func() uint8 { return []uint8{1, 2, 4, 8}[rng.Intn(4)] }
	n := rng.Intn(12) + 3
	for i := 0; i < n; i++ {
		if rng.Intn(5) == 0 {
			b.WithGuard(pred(), rng.Intn(2) == 0)
		}
		switch rng.Intn(27) {
		case 0:
			b.Add(reg(), src(), src())
		case 1:
			b.Sub(reg(), src(), src())
		case 2:
			b.Mul(reg(), src(), src())
		case 3:
			b.Mad(reg(), src(), src(), src())
		case 4:
			b.And(reg(), src(), src())
		case 5:
			b.Or(reg(), src(), src())
		case 6:
			b.Xor(reg(), src(), src())
		case 7:
			b.ShlI(reg(), src(), int64(rng.Intn(63)))
		case 8:
			b.ShrI(reg(), src(), int64(rng.Intn(63)))
		case 9:
			b.Min(reg(), src(), src())
		case 10:
			b.Sfu(reg(), src())
		case 11:
			b.SetP(isa.CmpOp(rng.Intn(10)), pred(), src(), src())
		case 12:
			b.Sel(reg(), pred(), src(), src())
		case 13:
			b.VoteAll(pred(), pred())
		case 14:
			b.Ballot(reg(), pred())
		case 15:
			b.Shfl(reg(), src(), src())
		case 16:
			// Shared memory: mask the address into (mostly) valid range;
			// rare out-of-range offsets must fail identically.
			a := reg()
			b.AndI(a, a, 0xF8)
			if rng.Intn(2) == 0 {
				b.StShared(a, int64(rng.Intn(64)), reg(), width())
			} else {
				b.LdShared(reg(), a, int64(rng.Intn(64)), width())
			}
		case 17:
			a := reg()
			b.AndI(a, a, 0x78)
			if rng.Intn(2) == 0 {
				b.StStage(a, int64(rng.Intn(80)), reg(), width())
			} else {
				b.LdStage(reg(), a, int64(rng.Intn(80)), width())
			}
		case 18:
			if rng.Intn(2) == 0 {
				b.StGlobal(reg(), int64(rng.Intn(512)), reg(), width())
			} else {
				b.LdGlobal(reg(), reg(), int64(rng.Intn(512)), width())
			}
		case 19:
			if rng.Intn(3) == 0 {
				b.Bar()
			} else {
				b.AtomAdd(reg(), reg(), int64(rng.Intn(256)), reg(), width())
			}
		case 20:
			b.SetPI(isa.CmpOp(rng.Intn(10)), pred(), src(), int64(rng.Intn(4096))-2048)
		case 21:
			switch rng.Intn(3) {
			case 0:
				b.PAnd(pred(), pred(), pred())
			case 1:
				b.POr(pred(), pred(), pred())
			default:
				b.PNot(pred(), pred())
			}
		case 22:
			b.VoteAny(pred(), pred())
		case 23:
			b.Max(reg(), src(), src())
		case 24:
			switch rng.Intn(3) {
			case 0:
				b.Shl(reg(), src(), src())
			case 1:
				b.Shr(reg(), src(), src())
			default:
				b.Not(reg(), src())
			}
		case 25:
			switch rng.Intn(3) {
			case 0:
				b.Ctz(reg(), src())
			case 1:
				b.Sext(reg(), src(), width())
			default:
				b.MovI(reg(), rng.Int63n(1<<40)-1<<39)
			}
		case 26:
			b.XorI(reg(), src(), int64(rng.Intn(1<<16)))
		}
	}
}
