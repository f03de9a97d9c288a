package core

import (
	"testing"

	"github.com/caba-sim/caba/internal/isa"
)

func runProg(t *testing.T, src string, active uint32) *Exec {
	t.Helper()
	p := isa.MustAssemble("t", src)
	e := NewExec(p, active)
	if _, err := e.Run(10000); err != nil {
		t.Fatalf("run: %v\n%s", err, p.Disassemble())
	}
	return e
}

func TestExecLockstepALU(t *testing.T) {
	e := runProg(t, `
  mov r0, %lane
  mul r1, r0, 3
  add r1, r1, 7
  exit`, FullMask)
	for lane := 0; lane < WarpSize; lane++ {
		if got, want := e.Reg(lane, 1), uint64(lane*3+7); got != want {
			t.Errorf("lane %d: r1 = %d, want %d", lane, got, want)
		}
	}
	if !e.Done {
		t.Error("warp should be done")
	}
}

func TestExecGuardedInstr(t *testing.T) {
	e := runProg(t, `
  mov r0, %lane
  setp.lt p0, r0, 4
  movi r1, 9
  @p0 movi r1, 5
  @!p0 movi r1, 6
  exit`, FullMask)
	for lane := 0; lane < WarpSize; lane++ {
		want := uint64(6)
		if lane < 4 {
			want = 5
		}
		if e.Reg(lane, 1) != want {
			t.Errorf("lane %d: r1 = %d, want %d", lane, e.Reg(lane, 1), want)
		}
	}
}

func TestExecIfThenDivergence(t *testing.T) {
	// Lanes < 8 take the branch and skip the fall-through block; all
	// lanes reconverge and run the tail.
	e := runProg(t, `
  mov r0, %lane
  setp.lt p0, r0, 8
  movi r1, 0
  movi r2, 0
  @p0 bra skip
  movi r1, 1       ; only lanes >= 8
skip:
  movi r2, 1       ; all lanes
  exit`, FullMask)
	for lane := 0; lane < WarpSize; lane++ {
		wantR1 := uint64(1)
		if lane < 8 {
			wantR1 = 0
		}
		if e.Reg(lane, 1) != wantR1 {
			t.Errorf("lane %d: r1 = %d, want %d", lane, e.Reg(lane, 1), wantR1)
		}
		if e.Reg(lane, 2) != 1 {
			t.Errorf("lane %d: r2 = %d, want 1 (reconvergence)", lane, e.Reg(lane, 2))
		}
	}
}

func TestExecIfElseDivergence(t *testing.T) {
	e := runProg(t, `
  mov r0, %lane
  setp.lt p0, r0, 16
  @p0 bra then
  movi r1, 200     ; else
  bra join
then:
  movi r1, 100
join:
  add r2, r1, r0
  exit`, FullMask)
	for lane := 0; lane < WarpSize; lane++ {
		want := uint64(200)
		if lane < 16 {
			want = 100
		}
		if e.Reg(lane, 1) != want {
			t.Errorf("lane %d: r1 = %d, want %d", lane, e.Reg(lane, 1), want)
		}
		if e.Reg(lane, 2) != want+uint64(lane) {
			t.Errorf("lane %d: r2 wrong after join", lane)
		}
	}
}

func TestExecLoopVariableTripCounts(t *testing.T) {
	// Each lane loops lane+1 times: classic divergent loop exit.
	e := runProg(t, `
  mov r0, %lane
  add r0, r0, 1    ; trip count
  movi r1, 0
top:
  add r1, r1, 1
  setp.lt p0, r1, r0
  @p0 bra top
  mul r2, r1, 10
  exit`, FullMask)
	for lane := 0; lane < WarpSize; lane++ {
		if got, want := e.Reg(lane, 1), uint64(lane+1); got != want {
			t.Errorf("lane %d: trips = %d, want %d", lane, got, want)
		}
		if got, want := e.Reg(lane, 2), uint64((lane+1)*10); got != want {
			t.Errorf("lane %d: tail = %d, want %d (must run after loop)", lane, got, want)
		}
	}
}

func TestExecNestedDivergence(t *testing.T) {
	e := runProg(t, `
  mov r0, %lane
  movi r1, 0
  setp.lt p0, r0, 16
  @p0 bra outer_then
  movi r1, 4
  bra done
outer_then:
  setp.lt p1, r0, 8
  @p1 bra inner_then
  movi r1, 2
  bra inner_join
inner_then:
  movi r1, 1
inner_join:
  add r1, r1, 100
done:
  exit`, FullMask)
	for lane := 0; lane < WarpSize; lane++ {
		var want uint64
		switch {
		case lane < 8:
			want = 101
		case lane < 16:
			want = 102
		default:
			want = 4
		}
		if e.Reg(lane, 1) != want {
			t.Errorf("lane %d: r1 = %d, want %d", lane, e.Reg(lane, 1), want)
		}
	}
}

func TestExecPartialExit(t *testing.T) {
	// Half the lanes exit early; the rest continue.
	e := runProg(t, `
  mov r0, %lane
  setp.lt p0, r0, 16
  @p0 exit
  movi r1, 7
  exit`, FullMask)
	for lane := 0; lane < WarpSize; lane++ {
		want := uint64(7)
		if lane < 16 {
			want = 0
		}
		if e.Reg(lane, 1) != want {
			t.Errorf("lane %d: r1 = %d, want %d", lane, e.Reg(lane, 1), want)
		}
	}
}

func TestExecVotesAndBallot(t *testing.T) {
	e := runProg(t, `
  mov r0, %lane
  setp.lt p0, r0, 4
  vote.any p1, p0
  vote.all p2, p0
  ballot r1, p0
  exit`, FullMask)
	if !e.pred(9, 1) {
		t.Error("vote.any should be true in every lane")
	}
	if e.pred(9, 2) {
		t.Error("vote.all should be false")
	}
	if e.Reg(5, 1) != 0xF {
		t.Errorf("ballot = %#x, want 0xF", e.Reg(5, 1))
	}
}

func TestExecBallotRespectsActiveMask(t *testing.T) {
	p := isa.MustAssemble("b", `
  setp.eq p0, %zero, 0
  ballot r1, p0
  exit`)
	e := NewExec(p, 0x0000FFFF)
	if _, err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	if e.Reg(3, 1) != 0xFFFF {
		t.Errorf("ballot = %#x, want 0xFFFF (inactive lanes excluded)", e.Reg(3, 1))
	}
}

func TestExecShfl(t *testing.T) {
	e := runProg(t, `
  mov r0, %lane
  mul r1, r0, 11
  movi r2, 3
  shfl r3, r1, r2
  exit`, FullMask)
	for lane := 0; lane < WarpSize; lane++ {
		if e.Reg(lane, 3) != 33 {
			t.Errorf("lane %d: shfl = %d, want 33", lane, e.Reg(lane, 3))
		}
	}
}

func TestExecShflSnapshotSemantics(t *testing.T) {
	// shfl must read pre-instruction values even when dst == src.
	e := runProg(t, `
  mov r0, %lane
  movi r2, 0
  shfl r0, r0, r2
  exit`, FullMask)
	for lane := 0; lane < WarpSize; lane++ {
		if e.Reg(lane, 0) != 0 {
			t.Errorf("lane %d: got %d, want lane 0's value", lane, e.Reg(lane, 0))
		}
	}
}

func TestExecStagingBuffers(t *testing.T) {
	p := isa.MustAssemble("st", `
  mov r0, %lane
  shl r1, r0, 2
  ld.stage.u32 r2, [r1]
  add r2, r2, 1
  st.stage.u32 [r1], r2
  exit`)
	e := NewExec(p, FullMask)
	e.StageIn = make([]byte, 128)
	e.StageOut = make([]byte, 128)
	for i := 0; i < 128; i++ {
		e.StageIn[i] = byte(i)
	}
	if _, err := e.Run(1000); err != nil {
		t.Fatal(err)
	}
	// Each u32 word incremented by 1.
	if e.StageOut[0] != 1 || e.StageOut[4] != 5 {
		t.Errorf("stage out = % x", e.StageOut[:8])
	}
}

func TestExecStageLoadZeroPadded(t *testing.T) {
	p := isa.MustAssemble("pad", `
  movi r0, 120
  ld.stage.u64 r1, [r0]
  exit`)
	e := NewExec(p, 1)
	e.StageIn = []byte{1, 2, 3} // tiny buffer; reads past it see zero
	if _, err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	if e.Reg(0, 1) != 0 {
		t.Errorf("r1 = %d, want 0", e.Reg(0, 1))
	}
}

func TestExecStageStoreOutOfRangeErrors(t *testing.T) {
	p := isa.MustAssemble("oob", `
  movi r0, 500
  movi r1, 1
  st.stage.u8 [r0], r1
  exit`)
	e := NewExec(p, 1)
	e.StageOut = make([]byte, 128)
	if _, err := e.Run(100); err == nil {
		t.Error("out-of-range stage store should error")
	}
}

func TestExecSharedMemory(t *testing.T) {
	p := isa.MustAssemble("sh", `
  mov r0, %lane
  shl r1, r0, 2
  st.shared.u32 [r1], r0
  movi r2, 0
  ld.shared.u32 r3, [r2+20]
  exit`)
	e := NewExec(p, FullMask)
	e.Shared = make([]byte, 256)
	if _, err := e.Run(1000); err != nil {
		t.Fatal(err)
	}
	if e.Reg(0, 3) != 5 {
		t.Errorf("shared readback = %d, want 5", e.Reg(0, 3))
	}
}

type recordMem struct {
	loads, stores []uint64
}

func (m *recordMem) LoadGlobal(a uint64, w uint8) uint64 { m.loads = append(m.loads, a); return a * 2 }
func (m *recordMem) StoreGlobal(a uint64, v uint64, w uint8) {
	m.stores = append(m.stores, a)
}
func (m *recordMem) AtomicAdd(a uint64, v uint64, w uint8) uint64 { return 0 }

func TestExecGlobalMemoryAndStepInfo(t *testing.T) {
	p := isa.MustAssemble("g", `
  mov r0, %lane
  shl r1, r0, 2
  ld.global.u32 r2, [r1+64]
  st.global.u32 [r1+256], r2
  exit`)
	e := NewExec(p, 0xF)
	m := &recordMem{}
	e.Mem = m
	var infos []StepInfo
	for {
		info, ok := e.Step()
		if !ok {
			break
		}
		infos = append(infos, info)
	}
	if len(m.loads) != 4 || m.loads[2] != 72 {
		t.Errorf("loads = %v", m.loads)
	}
	if len(m.stores) != 4 || m.stores[3] != 268 {
		t.Errorf("stores = %v", m.stores)
	}
	if e.Reg(1, 2) != (4+64)*2 {
		t.Errorf("loaded value = %d", e.Reg(1, 2))
	}
	ld := infos[2]
	if !ld.IsGlobal || ld.ExecMask != 0xF || ld.Addrs[1] != 68 {
		t.Errorf("load StepInfo = %+v", ld)
	}
}

func TestExecBarrier(t *testing.T) {
	p := isa.MustAssemble("bar", `
  movi r0, 1
  bar
  movi r0, 2
  exit`)
	e := NewExec(p, FullMask)
	n, err := e.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if !e.AtBarrier || n != 2 {
		t.Fatalf("should stop at barrier after 2 instrs, n=%d", n)
	}
	if e.Reg(0, 0) != 1 {
		t.Error("pre-barrier code must have run")
	}
	e.ReleaseBarrier()
	if _, err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	if !e.Done || e.Reg(0, 0) != 2 {
		t.Error("post-barrier code must run to completion")
	}
}

func TestExecSpecialRegs(t *testing.T) {
	p := isa.MustAssemble("sp", `
  mov r0, %tid
  mov r1, %ctaid
  mov r2, %p0
  exit`)
	e := NewExec(p, FullMask)
	for lane := 0; lane < WarpSize; lane++ {
		e.SetLaneSpecial(lane, isa.RegTid, uint64(100+lane))
	}
	e.SetSpecial(isa.RegCtaid, 7)
	e.SetSpecial(isa.RegParam0, 0xABC)
	if _, err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	if e.Reg(5, 0) != 105 || e.Reg(5, 1) != 7 || e.Reg(5, 2) != 0xABC {
		t.Errorf("specials = %d %d %#x", e.Reg(5, 0), e.Reg(5, 1), e.Reg(5, 2))
	}
}

func TestExecRunawayGuard(t *testing.T) {
	p := isa.MustAssemble("inf", `
top:
  bra top`)
	e := NewExec(p, FullMask)
	if _, err := e.Run(100); err == nil {
		t.Error("infinite loop should hit the step guard")
	}
}

func TestExecEmptyMaskIsDone(t *testing.T) {
	p := isa.MustAssemble("e", "exit")
	e := NewExec(p, 0)
	if !e.Done {
		t.Error("zero-mask warp is done immediately")
	}
	if _, ok := e.Step(); ok {
		t.Error("stepping a done warp must return ok=false")
	}
}

func TestExecResultSkipsInactiveLanes(t *testing.T) {
	p := isa.MustAssemble("r", `
  movi r0, 42
  exit`)
	e := NewExec(p, 0xFF00) // lanes 8..15
	if _, err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	if e.Result(isa.R(0)) != 42 {
		t.Errorf("Result = %d, want 42 from first launched lane", e.Result(isa.R(0)))
	}
}

func TestPostDominatorsDiamond(t *testing.T) {
	p := isa.MustAssemble("d", `
  setp.lt p0, r0, r1
  @p0 bra then
  movi r2, 1
  bra join
then:
  movi r2, 2
join:
  exit`)
	ipdom := isa.PostDominators(p)
	// The branch (index 1) must reconverge at "join" (index 5).
	if ipdom[1] != 5 {
		t.Errorf("branch ipdom = %d, want 5\n%s", ipdom[1], p.Disassemble())
	}
}

func TestPostDominatorsLoop(t *testing.T) {
	p := isa.MustAssemble("l", `
  movi r0, 0
top:
  add r0, r0, 1
  setp.lt p0, r0, 10
  @p0 bra top
  exit`)
	ipdom := isa.PostDominators(p)
	// The loop branch (index 3) reconverges at the loop exit (index 4).
	if ipdom[3] != 4 {
		t.Errorf("loop branch ipdom = %d, want 4", ipdom[3])
	}
}
