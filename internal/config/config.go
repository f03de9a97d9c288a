// Package config holds the simulated-system configuration (the paper's
// Table 1) and the design presets compared in the evaluation (Section 6).
package config

import (
	"fmt"

	"github.com/caba-sim/caba/internal/compress"
	"github.com/caba-sim/caba/internal/faults"
)

// DRAMTiming is the GDDR5 timing set (Table 1, in memory-clock cycles).
type DRAMTiming struct {
	TCL  int // CAS latency
	TRP  int // row precharge
	TRC  int // row cycle
	TRAS int // row active
	TRCD int // RAS-to-CAS
	TRRD int // row-to-row activate
	TCCD int // column-to-column (tCLDR in the paper's table)
	TWR  int // write recovery
}

// negative reports whether any timing is below zero.
func (t DRAMTiming) negative() bool {
	return min(t.TCL, t.TRP, t.TRC, t.TRAS, t.TRCD, t.TRRD, t.TCCD, t.TWR) < 0
}

// Config describes the simulated GPU. The zero value is not meaningful;
// start from Baseline(). What Table 1 fixes and no run varies is a
// constant instead: 32-thread warps (core.WarpSize), greedy-then-oldest
// issue, 128 B lines (compress.LineSize) and 32 B DRAM bursts
// (compress.BurstSize).
type Config struct {
	// Cores.
	NumSMs          int // streaming multiprocessors
	MaxWarpsPerSM   int // hardware warp contexts per SM, at most 64 (the AWT's bitmask width)
	MaxCTAsPerSM    int // thread-block limit per SM
	MaxThreadsPerSM int // thread limit per SM
	RegFilePerSM    int // 32-bit registers per SM
	SharedMemPerSM  int // bytes of shared memory per SM
	NumSchedulers   int // warp schedulers per SM (issue width)
	CoreClockMHz    int

	// Pipeline latencies (core cycles).
	ALULatency int
	SFULatency int

	// Caches.
	L1Size    int
	L1Assoc   int
	L1MSHRs   int // outstanding misses per SM
	L2Size    int // total, banked across memory partitions
	L2Assoc   int
	L2Latency int // L2 hit latency in core cycles
	L1Latency int // L1 hit latency in core cycles

	// Interconnect: one crossbar per direction; per-port flit width in
	// bytes moved per core cycle.
	FlitSize int

	// Memory system.
	NumChannels     int // GDDR5 memory controllers
	BanksPerChannel int
	MemClockMHz     int // DRAM data-clock; one 32B burst per memory cycle
	Timing          DRAMTiming

	// BWScale scales peak off-chip bandwidth: 0.5, 1.0 or 2.0 in the
	// paper's sensitivity studies. Implemented as a memory-clock scale.
	BWScale float64

	// MD (metadata) cache for compression designs, Section 4.3.2.
	MDCacheSize  int // bytes
	MDCacheAssoc int
	// MDLinesPerEntry is how many data lines one MD-cache line covers:
	// with 2 bits of burst-count metadata per 128B line, a 32B MD line
	// covers 128 data lines.
	MDLinesPerEntry int

	// AWDeployBW overrides the Assist Warp Controller's per-cycle
	// deployment bandwidth (0 = default). Exposed for the DESIGN.md
	// ablation: deployment bandwidth is what bounds decompression
	// throughput (Section 3.3's fetch/decode-bandwidth discussion).
	AWDeployBW int

	// Scale shrinks workload working sets and grids for tests/quick
	// benches. 1.0 is paper scale.
	Scale float64

	// Deprecated: ignored; SMs always tick serially.
	SMWorkers int

	// WedgeLimit bounds how many consecutive idle drain cycles the
	// simulator tolerates before declaring the memory system wedged and
	// returning a structured error instead of spinning to the cycle cap.
	// 0 selects the default of 10,000,000 cycles.
	WedgeLimit uint64

	// Faults configures deterministic fault injection (zero value =
	// disabled). Same seed + same rates produce bit-identical fault
	// sites and statistics.
	Faults faults.Config

	// CheckpointEvery takes a full simulator snapshot every N cycles and
	// hands it to the run's checkpoint sink (Simulator.OnCheckpoint /
	// caba's checkpoint file). 0 disables periodic checkpointing and adds
	// zero overhead to the run. Restoring a snapshot and running to
	// completion is bit-identical to the uninterrupted run.
	CheckpointEvery uint64

	// AuditEvery runs the runtime invariant auditor every N cycles,
	// turning internal-state corruption (MSHR leaks, scoreboard drift,
	// ring-conservation violations) into a structured error at the first
	// audited cycle instead of a downstream wedge or silent bad
	// statistics. 0 disables auditing and adds zero overhead.
	AuditEvery uint64

	// FlightRecorderDepth keeps the last N notable events per SM (plus a
	// simulator-level ring) for crash postmortems: wedge errors, audit
	// violations and panics attach the merged recent-event trail. 0
	// disables recording and adds zero overhead.
	FlightRecorderDepth int

	// SampleEvery records a metrics time-series sample (IPC, issue-slot
	// breakdown, hit rates, MSHR/assist-warp occupancy, DRAM bus busy
	// fraction, compression ratio) every N core cycles into
	// Result.Series. Sampling reads counters after every SM has ticked;
	// snapshot/restore carries the sampler state so resumed runs emit
	// identical series. 0 disables sampling and adds zero overhead.
	// Simulated statistics are bit-identical either way.
	SampleEvery uint64

	// MetricsFile writes the sampled series (needs SampleEvery > 0) to
	// this path at the end of the run, as JSON Lines (".csv" suffix
	// selects CSV). Empty writes nothing. Pure output: it does not
	// affect simulation and is excluded from the snapshot config hash.
	MetricsFile string

	// TraceFile writes a Chrome-trace/Perfetto JSON timeline of the run
	// to this path: warp lifetimes, assist-warp spawn→complete spans
	// (keyed by trigger kind), MSHR allocate→fill spans, and DRAM data
	// bursts. Empty disables tracing and adds zero overhead. Pure
	// output: it does not affect simulation and is excluded from the
	// snapshot config hash. Simulated statistics are bit-identical
	// either way.
	TraceFile string

	// AttributeStalls accumulates per-warp stall attribution: every
	// cycle, each scheduler slot that fails to issue is charged to
	// exactly one (warp, cause) pair — scoreboard, barrier, drain,
	// LSU/SFU/ALU port contention, store-buffer full, MSHR full, assist
	// priority, or empty SM — summed into Result.Stalls. The totals are
	// pinned to the issue-slot counters: sum == total slots − issued
	// slots. false disables attribution and adds zero overhead.
	AttributeStalls bool
}

// Baseline returns the paper's Table 1 configuration.
func Baseline() Config {
	return Config{
		NumSMs:          15,
		MaxWarpsPerSM:   48,
		MaxCTAsPerSM:    8,
		MaxThreadsPerSM: 1536,
		RegFilePerSM:    32768, // 128KB of 4B registers
		SharedMemPerSM:  32 << 10,
		NumSchedulers:   2,
		CoreClockMHz:    1400,
		ALULatency:      4,
		SFULatency:      20,
		L1Size:          16 << 10,
		L1Assoc:         4,
		L1MSHRs:         64,
		L2Size:          768 << 10,
		L2Assoc:         16,
		L1Latency:       4,
		L2Latency:       40,
		FlitSize:        32,
		NumChannels:     6,
		BanksPerChannel: 16,
		MemClockMHz:     924, // 6 x 924MHz x 32B = 177.4 GB/s
		Timing: DRAMTiming{
			TCL: 12, TRP: 12, TRC: 40, TRAS: 28,
			TRCD: 12, TRRD: 6, TCCD: 5, TWR: 12,
		},
		BWScale:         1.0,
		MDCacheSize:     8 << 10,
		MDCacheAssoc:    4,
		MDLinesPerEntry: 128,
		Scale:           1.0,
		WedgeLimit:      10_000_000,
	}
}

// TestConfig returns a shrunken configuration for fast unit tests: fewer
// SMs and a small memory system, same mechanisms.
func TestConfig() Config {
	c := Baseline()
	c.NumSMs = 2
	c.MaxWarpsPerSM = 8
	c.MaxCTAsPerSM = 4
	c.MaxThreadsPerSM = 256
	c.RegFilePerSM = 8192
	c.L1Size = 4 << 10
	c.L2Size = 32 << 10
	c.NumChannels = 2
	c.Scale = 0.02
	return c
}

// ResultConfig returns c with every field that cannot change a simulated
// result zeroed. It is the single list of result-neutral fields: the
// farm's cell key and the snapshot config hash both hash its output, so
// configurations that differ only in these fields share cached results
// and may resume each other's checkpoints.
//
//   - SMWorkers is deprecated and ignored.
//   - CheckpointEvery, AuditEvery and FlightRecorderDepth only observe
//     the run.
//   - MetricsFile and TraceFile are output paths.
//
// SampleEvery and AttributeStalls stay: they decide what a Result carries
// (the metrics series, the stall attribution) and the geometry of a
// snapshot's observability payload, so a resumed run reproduces the
// series only under the same settings.
func (c Config) ResultConfig() Config {
	c.SMWorkers = 0
	c.CheckpointEvery = 0
	c.AuditEvery = 0
	c.FlightRecorderDepth = 0
	c.MetricsFile = ""
	c.TraceFile = ""
	return c
}

// Validate reports the first configuration problem found. It rejects every
// value the simulator cannot run: sizes, counts and clocks that are
// divisors or capacities must be positive, and latencies and DRAM timings
// must not be negative.
func (c *Config) Validate() error {
	switch {
	case c.NumSMs <= 0:
		return fmt.Errorf("config: NumSMs must be positive")
	case c.MaxCTAsPerSM <= 0:
		return fmt.Errorf("config: MaxCTAsPerSM must be positive")
	case c.RegFilePerSM <= 0:
		return fmt.Errorf("config: RegFilePerSM must be positive")
	case c.CoreClockMHz <= 0:
		return fmt.Errorf("config: CoreClockMHz must be positive")
	case c.MemClockMHz <= 0:
		return fmt.Errorf("config: MemClockMHz must be positive")
	case c.ALULatency < 0 || c.SFULatency < 0 || c.L1Latency < 0 || c.L2Latency < 0:
		return fmt.Errorf("config: latencies must be non-negative")
	case c.L1MSHRs <= 0:
		return fmt.Errorf("config: L1MSHRs must be positive")
	case c.FlitSize <= 0:
		return fmt.Errorf("config: FlitSize must be positive")
	case c.BanksPerChannel <= 0:
		return fmt.Errorf("config: BanksPerChannel must be positive")
	case c.Timing.negative():
		return fmt.Errorf("config: DRAM timings must be non-negative")
	case c.MDCacheAssoc <= 0 || c.MDLinesPerEntry <= 0:
		return fmt.Errorf("config: MDCacheAssoc and MDLinesPerEntry must be positive")
	case c.MaxWarpsPerSM <= 0:
		return fmt.Errorf("config: MaxWarpsPerSM must be positive")
	case c.MaxWarpsPerSM > 64:
		// The assist-warp controller tracks warp slots and AWT entries
		// in 64-bit masks (core.MaxWarps).
		return fmt.Errorf("config: MaxWarpsPerSM %d exceeds 64", c.MaxWarpsPerSM)
	case c.NumChannels <= 0:
		return fmt.Errorf("config: NumChannels must be positive")
	case c.L1Assoc <= 0 || c.L1Size <= 0 || c.L1Size%(c.L1Assoc*compress.LineSize) != 0:
		return fmt.Errorf("config: L1 geometry (%d/%d-way) not line-divisible", c.L1Size, c.L1Assoc)
	case c.L2Assoc <= 0 || c.L2Size <= 0 || c.L2Size%(c.L2Assoc*compress.LineSize*c.NumChannels) != 0:
		return fmt.Errorf("config: L2 geometry (%d/%d-way/%d parts) not line-divisible", c.L2Size, c.L2Assoc, c.NumChannels)
	case c.BWScale <= 0:
		return fmt.Errorf("config: BWScale must be positive")
	case c.Scale <= 0 || c.Scale > 1:
		return fmt.Errorf("config: Scale %v out of (0,1]", c.Scale)
	case c.NumSchedulers <= 0:
		return fmt.Errorf("config: NumSchedulers must be positive")
	case c.FlightRecorderDepth < 0:
		return fmt.Errorf("config: FlightRecorderDepth must be non-negative")
	case c.MetricsFile != "" && c.SampleEvery == 0:
		return fmt.Errorf("config: MetricsFile needs SampleEvery > 0")
	}
	if err := c.Faults.Validate(); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	return nil
}

// PeakBandwidthGBs returns the peak off-chip bandwidth in GB/s.
func (c *Config) PeakBandwidthGBs() float64 {
	return float64(c.NumChannels) * float64(c.MemClockMHz) * 1e6 * c.BWScale * compress.BurstSize / 1e9
}

// MemCyclesPerCoreCycle returns the DRAM-clock to core-clock ratio,
// including the bandwidth scale factor.
func (c *Config) MemCyclesPerCoreCycle() float64 {
	return float64(c.MemClockMHz) * c.BWScale / float64(c.CoreClockMHz)
}

// DecompressorKind selects who performs decompression in a design.
type DecompressorKind uint8

// Decompressor kinds.
const (
	DecompNone  DecompressorKind = iota // no compression anywhere
	DecompCABA                          // assist warps on the cores
	DecompHW                            // dedicated fixed-latency logic
	DecompIdeal                         // free (zero latency, zero energy)
)

var decompNames = [...]string{"none", "caba", "hw", "ideal"}

// String returns the decompressor kind name.
func (d DecompressorKind) String() string {
	if int(d) < len(decompNames) {
		return decompNames[d]
	}
	return fmt.Sprintf("decomp(%d)", uint8(d))
}

// CompressScope says where data lives in compressed form.
type CompressScope uint8

// Compression scopes.
const (
	ScopeNone   CompressScope = iota // nowhere
	ScopeMemory                      // DRAM only (HW-BDI-Mem): interconnect moves raw lines
	ScopeL2                          // L2 + DRAM + interconnect (lines move compressed to the SM)
)

var scopeNames = [...]string{"none", "memory", "l2"}

// String returns the scope name.
func (s CompressScope) String() string {
	if int(s) < len(scopeNames) {
		return scopeNames[s]
	}
	return fmt.Sprintf("scope(%d)", uint8(s))
}

// UseCase selects which assist-warp application(s) a design deploys on
// the cores. Compression is the paper's primary use case (Section 4);
// prefetching and memoization are the framework generalizations from
// Sections 7.1/7.2, promoted here to first-class simulated use cases.
type UseCase uint8

// Assist-warp use cases.
const (
	UseCompression UseCase = iota // data compression only (the default; Decomp still gates it)
	UsePrefetch                   // stride-detected assist-warp prefetching (Section 7.2)
	UseMemoization                // result-cache SFU memoization (Section 7.1)
	UseCombined                   // prefetch + memoization together (alongside any compression)
)

var useCaseNames = [...]string{"compression", "prefetch", "memoization", "combined"}

// String returns the use-case name.
func (u UseCase) String() string {
	if int(u) < len(useCaseNames) {
		return useCaseNames[u]
	}
	return fmt.Sprintf("usecase(%d)", uint8(u))
}

// Design is one of the evaluated system designs (Section 6): a compression
// algorithm, where compressed data lives, who decompresses it, and which
// assist-warp use cases run on the cores.
type Design struct {
	Name      string
	Scope     CompressScope
	Alg       compress.AlgID
	Decomp    DecompressorKind
	L1TagMult int // >1 enables L1 capacity compression with N x tags (Fig 13)
	L2TagMult int // >1 enables L2 capacity compression with N x tags (Fig 13)
	UseCase   UseCase
}

// The designs evaluated in the paper.
var (
	// DesignBase is the no-compression baseline.
	DesignBase = Design{Name: "Base", Scope: ScopeNone, Alg: compress.AlgNone, Decomp: DecompNone, L1TagMult: 1, L2TagMult: 1}
	// DesignHWBDIMem compresses DRAM traffic only, with dedicated logic at
	// the memory controller (prior work, e.g. Sathish et al. [72]).
	DesignHWBDIMem = Design{Name: "HW-BDI-Mem", Scope: ScopeMemory, Alg: compress.AlgBDI, Decomp: DecompHW, L1TagMult: 1, L2TagMult: 1}
	// DesignHWBDI compresses interconnect + DRAM traffic with dedicated
	// per-SM logic.
	DesignHWBDI = Design{Name: "HW-BDI", Scope: ScopeL2, Alg: compress.AlgBDI, Decomp: DecompHW, L1TagMult: 1, L2TagMult: 1}
	// DesignCABABDI is the paper's proposal: assist warps do the work.
	DesignCABABDI = Design{Name: "CABA-BDI", Scope: ScopeL2, Alg: compress.AlgBDI, Decomp: DecompCABA, L1TagMult: 1, L2TagMult: 1}
	// DesignIdealBDI has all the bandwidth benefits and none of the costs.
	DesignIdealBDI = Design{Name: "Ideal-BDI", Scope: ScopeL2, Alg: compress.AlgBDI, Decomp: DecompIdeal, L1TagMult: 1, L2TagMult: 1}
	// CABA with the alternative algorithms (Section 6.3).
	DesignCABAFPC   = Design{Name: "CABA-FPC", Scope: ScopeL2, Alg: compress.AlgFPC, Decomp: DecompCABA, L1TagMult: 1, L2TagMult: 1}
	DesignCABACPack = Design{Name: "CABA-CPack", Scope: ScopeL2, Alg: compress.AlgCPack, Decomp: DecompCABA, L1TagMult: 1, L2TagMult: 1}
	DesignCABABest  = Design{Name: "CABA-BestOfAll", Scope: ScopeL2, Alg: compress.AlgBest, Decomp: DecompCABA, L1TagMult: 1, L2TagMult: 1}
	// The framework use cases (Sections 7.1/7.2): assist warps with no
	// compression anywhere...
	DesignCABAPrefetch = Design{Name: "CABA-Prefetch", Scope: ScopeNone, Alg: compress.AlgNone, Decomp: DecompNone, L1TagMult: 1, L2TagMult: 1, UseCase: UsePrefetch}
	DesignCABAMemo     = Design{Name: "CABA-Memo", Scope: ScopeNone, Alg: compress.AlgNone, Decomp: DecompNone, L1TagMult: 1, L2TagMult: 1, UseCase: UseMemoization}
	// ...and everything at once: BDI compression + prefetch + memoization
	// sharing the same assist-warp slots and deploy bandwidth.
	DesignCABACombined = Design{Name: "CABA-Combined", Scope: ScopeL2, Alg: compress.AlgBDI, Decomp: DecompCABA, L1TagMult: 1, L2TagMult: 1, UseCase: UseCombined}
)

// CacheCompressed returns a Figure 13 design: CABA-BDI plus capacity
// compression at L1 or L2 with the given tag multiplier (2 or 4).
func CacheCompressed(level string, tagMult int) Design {
	d := DesignCABABDI
	switch level {
	case "L1":
		d.Name = fmt.Sprintf("CABA-L1-%dx", tagMult)
		d.L1TagMult = tagMult
	case "L2":
		d.Name = fmt.Sprintf("CABA-L2-%dx", tagMult)
		d.L2TagMult = tagMult
	default:
		panic("config: CacheCompressed level must be L1 or L2")
	}
	return d
}

// Compressing reports whether the design compresses anything.
func (d Design) Compressing() bool { return d.Scope != ScopeNone }

// Prefetching reports whether the design runs the stride-prefetch
// assist-warp use case.
func (d Design) Prefetching() bool {
	return d.UseCase == UsePrefetch || d.UseCase == UseCombined
}

// Memoizing reports whether the design runs the SFU-memoization
// assist-warp use case.
func (d Design) Memoizing() bool {
	return d.UseCase == UseMemoization || d.UseCase == UseCombined
}

// AssistUseCases reports whether any non-compression assist-warp use
// case is enabled — i.e. whether the simulator must instantiate the
// stride table, result cache and their trigger paths.
func (d Design) AssistUseCases() bool { return d.Prefetching() || d.Memoizing() }
