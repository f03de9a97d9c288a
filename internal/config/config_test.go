package config

import (
	"testing"

	"github.com/caba-sim/caba/internal/compress"
	"github.com/caba-sim/caba/internal/core"
)

func TestBaselineMatchesTable1(t *testing.T) {
	c := Baseline()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Table 1 values. Warp, line and burst size are constants.
	checks := []struct {
		name string
		got  int
		want int
	}{
		{"SMs", c.NumSMs, 15},
		{"warp size", core.WarpSize, 32},
		{"line size", compress.LineSize, 128},
		{"burst size", compress.BurstSize, 32},
		{"channels", c.NumChannels, 6},
		{"warps/SM", c.MaxWarpsPerSM, 48},
		{"registers/SM", c.RegFilePerSM, 32768},
		{"shared/SM", c.SharedMemPerSM, 32 << 10},
		{"schedulers", c.NumSchedulers, 2},
		{"core MHz", c.CoreClockMHz, 1400},
		{"L1 size", c.L1Size, 16 << 10},
		{"L1 assoc", c.L1Assoc, 4},
		{"L2 size", c.L2Size, 768 << 10},
		{"L2 assoc", c.L2Assoc, 16},
		{"banks/MC", c.BanksPerChannel, 16},
		{"tCL", c.Timing.TCL, 12},
		{"tRP", c.Timing.TRP, 12},
		{"tRC", c.Timing.TRC, 40},
		{"tRAS", c.Timing.TRAS, 28},
		{"tRCD", c.Timing.TRCD, 12},
		{"tRRD", c.Timing.TRRD, 6},
		{"tWR", c.Timing.TWR, 12},
	}
	for _, ch := range checks {
		if ch.got != ch.want {
			t.Errorf("%s = %d, want %d", ch.name, ch.got, ch.want)
		}
	}
	// 177.4 GB/s peak bandwidth.
	if bw := c.PeakBandwidthGBs(); bw < 176 || bw > 179 {
		t.Errorf("peak bandwidth = %.1f GB/s, want ~177.4", bw)
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	mk := func(f func(*Config)) Config {
		c := Baseline()
		f(&c)
		return c
	}
	bad := []Config{
		mk(func(c *Config) { c.NumSMs = 0 }),
		mk(func(c *Config) { c.MaxWarpsPerSM = 65 }), // wider than the AWT bitmasks
		mk(func(c *Config) { c.L1Size = 1000 }),
		mk(func(c *Config) { c.NumChannels = 0 }),
		mk(func(c *Config) { c.BWScale = 0 }),
		mk(func(c *Config) { c.Scale = 0 }),
		mk(func(c *Config) { c.Scale = 2 }),
		mk(func(c *Config) { c.NumSchedulers = 0 }),
		// Values the simulator cannot run: divisors, capacities and clocks
		// of zero, negative latencies and DRAM timings.
		mk(func(c *Config) { c.MaxCTAsPerSM = 0 }),
		mk(func(c *Config) { c.RegFilePerSM = 0 }),
		mk(func(c *Config) { c.CoreClockMHz = 0 }),
		mk(func(c *Config) { c.MemClockMHz = 0 }),
		mk(func(c *Config) { c.ALULatency = -1 }),
		mk(func(c *Config) { c.SFULatency = -1 }),
		mk(func(c *Config) { c.L1Latency = -1 }),
		mk(func(c *Config) { c.L2Latency = -1 }),
		mk(func(c *Config) { c.L1MSHRs = 0 }),
		mk(func(c *Config) { c.L1Size = 0 }),
		mk(func(c *Config) { c.L2Size = 0 }),
		mk(func(c *Config) { c.FlitSize = 0 }),
		mk(func(c *Config) { c.BanksPerChannel = 0 }),
		mk(func(c *Config) { c.MDCacheAssoc = 0 }),
		mk(func(c *Config) { c.MDLinesPerEntry = 0 }),
		mk(func(c *Config) { c.Timing.TCL = -1 }),
		mk(func(c *Config) { c.Timing.TRP = -1 }),
		mk(func(c *Config) { c.Timing.TRC = -1 }),
		mk(func(c *Config) { c.Timing.TRAS = -1 }),
		mk(func(c *Config) { c.Timing.TRCD = -1 }),
		mk(func(c *Config) { c.Timing.TRRD = -1 }),
		mk(func(c *Config) { c.Timing.TCCD = -1 }),
		mk(func(c *Config) { c.Timing.TWR = -1 }),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should fail validation", i)
		}
	}
}

func TestTestConfigValid(t *testing.T) {
	c := TestConfig()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDesignPresets(t *testing.T) {
	if DesignBase.Compressing() {
		t.Error("Base must not compress")
	}
	for _, d := range []Design{DesignHWBDIMem, DesignHWBDI, DesignCABABDI, DesignIdealBDI} {
		if !d.Compressing() {
			t.Errorf("%s must compress", d.Name)
		}
		if d.Alg != compress.AlgBDI {
			t.Errorf("%s must use BDI", d.Name)
		}
	}
	if DesignHWBDIMem.Scope != ScopeMemory {
		t.Error("HW-BDI-Mem compresses memory only")
	}
	if DesignHWBDI.Scope != ScopeL2 || DesignCABABDI.Scope != ScopeL2 {
		t.Error("HW-BDI and CABA-BDI compress interconnect + memory")
	}
	if DesignCABABDI.Decomp != DecompCABA || DesignIdealBDI.Decomp != DecompIdeal {
		t.Error("decompressor kinds wrong")
	}
}

func TestCacheCompressedPresets(t *testing.T) {
	d := CacheCompressed("L1", 2)
	if d.L1TagMult != 2 || d.L2TagMult != 1 || d.Name != "CABA-L1-2x" {
		t.Errorf("L1 preset wrong: %+v", d)
	}
	d = CacheCompressed("L2", 4)
	if d.L2TagMult != 4 || d.L1TagMult != 1 {
		t.Errorf("L2 preset wrong: %+v", d)
	}
	defer func() {
		if recover() == nil {
			t.Error("bad level must panic")
		}
	}()
	CacheCompressed("L3", 2)
}

func TestMemClockRatio(t *testing.T) {
	c := Baseline()
	r := c.MemCyclesPerCoreCycle()
	if r < 0.6 || r > 0.7 {
		t.Errorf("mem/core clock ratio = %v, want ~0.66", r)
	}
	c.BWScale = 2
	if c.MemCyclesPerCoreCycle() != 2*r {
		t.Error("BWScale must scale the ratio")
	}
}
