package core_test

import (
	"testing"

	"github.com/caba-sim/caba/internal/config"
	"github.com/caba-sim/caba/internal/core"
	"github.com/caba-sim/caba/internal/isa"
	"github.com/caba-sim/caba/internal/workloads"
)

// TestWorkloadKernelsMatchInterpreter steps every workload kernel program
// on the decoded engine and on the interpreter in lockstep, as warp 0 of
// CTA 1 with the special registers, kernel parameters and shared memory
// the SM gives it. Global memory reads hashed data, so gathers follow
// varied indices and every loop runs its full trip count.
func TestWorkloadKernelsMatchInterpreter(t *testing.T) {
	cfg := config.TestConfig()
	for i := range workloads.Apps {
		app := &workloads.Apps[i]
		inst, err := app.Instantiate(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		k := inst.Kernel
		setup := func(e *core.Exec) {
			const cta = 1
			if k.SharedMem > 0 {
				e.Shared = make([]byte, k.SharedMem)
			}
			for lane := 0; lane < core.WarpSize; lane++ {
				e.SetLaneSpecial(lane, isa.RegTid, uint64(lane))
				e.SetLaneSpecial(lane, isa.RegGtid, uint64(cta*k.CTAThreads+lane))
			}
			e.SetSpecial(isa.RegNTid, uint64(k.CTAThreads))
			e.SetSpecial(isa.RegCtaid, cta)
			e.SetSpecial(isa.RegNCta, uint64(k.GridCTAs))
			e.SetSpecial(isa.RegWarp, 0)
			for p, r := range []isa.Reg{isa.RegParam0, isa.RegParam1, isa.RegParam2, isa.RegParam3} {
				e.SetSpecial(r, k.Params[p])
			}
		}
		dec := core.Lockstep(t, app.Name, k.Prog, core.FullMask, setup)
		if !dec.Done || dec.Err != nil {
			t.Errorf("%s: kernel did not run to completion (done %v, err %v, %d instructions)",
				app.Name, dec.Done, dec.Err, dec.Executed)
		}
	}
}
