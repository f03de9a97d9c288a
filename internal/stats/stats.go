// Package stats collects the simulation metrics the paper reports:
// instructions per cycle, the Figure 1 issue-cycle breakdown, DRAM
// bandwidth utilization, compression ratios, cache and MD-cache hit rates,
// and the raw event counts the energy model consumes.
package stats

import (
	"fmt"
	"reflect"
	"strings"

	"github.com/caba-sim/caba/internal/compress"
)

// StallKind classifies one scheduler-cycle, matching Figure 1's taxonomy.
type StallKind uint8

// Scheduler-cycle outcomes.
const (
	Active       StallKind = iota // issued at least one instruction
	ComputeStall                  // ready warp blocked by a full ALU/SFU pipeline
	MemoryStall                   // ready warp blocked by the memory pipeline/MSHRs
	DataDepStall                  // warps present but blocked by the scoreboard
	IdleCycle                     // no warp had a decoded, unblocked instruction
	NumStallKinds
)

var stallNames = [...]string{"Active", "ComputeStall", "MemoryStall", "DataDepStall", "Idle"}

// String returns the stall kind name.
func (k StallKind) String() string {
	if int(k) < len(stallNames) {
		return stallNames[k]
	}
	return fmt.Sprintf("stall(%d)", uint8(k))
}

// Sim aggregates all counters for one simulation run. Plain fields; the
// simulator increments them directly and the reporting layer derives the
// paper's metrics.
type Sim struct {
	// Time.
	Cycles    uint64 // core-clock cycles until kernel completion
	MemCycles uint64 // DRAM-clock cycles elapsed

	// Work.
	WarpInstrs   uint64 // warp-instructions issued (parent warps)
	ThreadInstrs uint64 // thread-instructions (warp instrs x active lanes)
	AssistInstrs uint64 // warp-instructions issued on behalf of assist warps
	AssistWarps  uint64 // assist-warp activations
	AssistKilled uint64 // assist warps killed/flushed before completion

	// Instruction class mix (regular + assist), for the energy model.
	ALUInstrs  uint64
	SFUInstrs  uint64
	MemInstrs  uint64 // shared/staging/global accesses issued
	CtrlInstrs uint64

	// Issue-cycle breakdown (per scheduler slot; sums to
	// Cycles x NumSchedulers x NumSMs).
	IssueSlots [NumStallKinds]uint64

	// Caches.
	L1Hits, L1Misses   uint64
	L2Hits, L2Misses   uint64
	L1Evictions        uint64
	L2Evictions        uint64
	StoreBufferFlushes uint64 // pending-store buffer overflows (released raw)

	// Interconnect.
	FlitsToMem   uint64 // SM -> memory-partition flits
	FlitsFromMem uint64 // memory-partition -> SM flits

	// DRAM.
	DRAMReads      uint64
	DRAMWrites     uint64
	DRAMBursts     uint64 // data-bus busy slots (one burst each)
	DRAMActivates  uint64
	DRAMBusyCycles uint64 // memory cycles the data bus was transferring

	// Compression.
	Ratio             compress.Ratio
	LinesCompressed   uint64 // compression events (store path)
	LinesDecompressed uint64 // decompression events (fill path)

	// Load latency (issue to last-line completion, in core cycles).
	LoadCount    uint64
	LoadLatTotal uint64

	// MD cache (Section 4.3.2).
	MDHits, MDMisses uint64

	// Assist-warp use cases (Sections 7.1/7.2). All zero unless the
	// design's UseCase enables prefetch and/or memoization.
	PrefetchTriggers  uint64 // RtPrefetch assist warps launched by the stride table
	PrefetchThrottled uint64 // confident triggers dropped on MSHR/slot/utilization pressure
	PrefetchUseful    uint64 // demand L1 hits on lines a prefetch assist filled
	MemoHits          uint64 // SFU ops skipped via the result cache (probe assist replayed the value)
	MemoMisses        uint64 // memoizable SFU ops that missed the result cache
	MemoNoSlot        uint64 // result-cache hits abandoned because no AWT slot was free
	MemoUpdates       uint64 // RtMemoSave assist warps launched to install a result

	// Fault injection (internal/faults). Zero when injection is disabled.
	FaultsInjected   uint64 // faults the campaign actually placed
	FaultsDetected   uint64 // faults caught by a check (ECC assist warp, MD ECC, routine error)
	FaultsRecovered  uint64 // detected faults repaired (raw re-fetch or metadata refetch)
	ResponsesDropped uint64 // read responses lost to injection (unrecoverable)
	ResponsesDelayed uint64 // read responses held and redelivered late

	// Occupancy / registers (Figure 2).
	RegsPerThread     int
	ThreadsPerSM      int // resident threads at steady state
	CTAsPerSM         int
	UnallocatedRegs   float64 // fraction of the register file unallocated
	AssistRegsPerWarp int     // extra registers provisioned per warp for assist routines

	// Energy (filled by internal/energy after the run, in nanojoules).
	EnergyCore     float64
	EnergyRF       float64
	EnergyL1       float64
	EnergyL2       float64
	EnergyNoC      float64
	EnergyDRAM     float64
	EnergyStatic   float64
	EnergyOverhead float64 // MD cache + AWS/AWC/AWB or dedicated logic
}

// IPC returns thread-instructions per core cycle (the paper's performance
// metric; assist-warp instructions are overhead, not work, and are
// excluded).
func (s *Sim) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.ThreadInstrs) / float64(s.Cycles)
}

// BWUtilization returns the fraction of DRAM cycles the data bus was busy.
func (s *Sim) BWUtilization() float64 {
	if s.MemCycles == 0 {
		return 0
	}
	return float64(s.DRAMBusyCycles) / float64(s.MemCycles)
}

// IssueBreakdown returns each stall kind as a fraction of all scheduler
// slots.
func (s *Sim) IssueBreakdown() [NumStallKinds]float64 {
	var out [NumStallKinds]float64
	var total uint64
	for _, v := range s.IssueSlots {
		total += v
	}
	if total == 0 {
		return out
	}
	for i, v := range s.IssueSlots {
		out[i] = float64(v) / float64(total)
	}
	return out
}

// L1HitRate returns the L1 hit fraction.
func (s *Sim) L1HitRate() float64 { return rate(s.L1Hits, s.L1Misses) }

// L2HitRate returns the L2 hit fraction.
func (s *Sim) L2HitRate() float64 { return rate(s.L2Hits, s.L2Misses) }

// MDHitRate returns the metadata-cache hit fraction.
func (s *Sim) MDHitRate() float64 { return rate(s.MDHits, s.MDMisses) }

func rate(hit, miss uint64) float64 {
	if hit+miss == 0 {
		return 0
	}
	return float64(hit) / float64(hit+miss)
}

// AvgLoadLatency returns the mean global-load latency in cycles.
func (s *Sim) AvgLoadLatency() float64 {
	if s.LoadCount == 0 {
		return 0
	}
	return float64(s.LoadLatTotal) / float64(s.LoadCount)
}

// TotalEnergy returns total energy in nanojoules.
func (s *Sim) TotalEnergy() float64 {
	return s.EnergyCore + s.EnergyRF + s.EnergyL1 + s.EnergyL2 + s.EnergyNoC +
		s.EnergyDRAM + s.EnergyStatic + s.EnergyOverhead
}

// DRAMEnergy returns the DRAM component in nanojoules.
func (s *Sim) DRAMEnergy() float64 { return s.EnergyDRAM }

// AvgPowerW returns average power in watts given the core clock in MHz.
func (s *Sim) AvgPowerW(coreClockMHz int) float64 {
	if s.Cycles == 0 {
		return 0
	}
	seconds := float64(s.Cycles) / (float64(coreClockMHz) * 1e6)
	return s.TotalEnergy() * 1e-9 / seconds
}

// Diff compares every field of two runs and returns a human-readable
// line per mismatch (empty when identical). The equivalence tests use it
// so a divergence names the counter that moved instead of dumping two
// structs.
func (s *Sim) Diff(o *Sim) []string {
	var out []string
	va, vb := reflect.ValueOf(*s), reflect.ValueOf(*o)
	t := va.Type()
	for i := 0; i < t.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		if !reflect.DeepEqual(fa.Interface(), fb.Interface()) {
			out = append(out, fmt.Sprintf("%s: %v != %v", t.Field(i).Name, fa.Interface(), fb.Interface()))
		}
	}
	return out
}

// String summarizes the run for logs and the CLI.
func (s *Sim) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d ipc=%.2f bw=%.1f%%", s.Cycles, s.IPC(), 100*s.BWUtilization())
	br := s.IssueBreakdown()
	fmt.Fprintf(&b, " issue[act=%.0f%% comp=%.0f%% mem=%.0f%% dep=%.0f%% idle=%.0f%%]",
		100*br[Active], 100*br[ComputeStall], 100*br[MemoryStall], 100*br[DataDepStall], 100*br[IdleCycle])
	if s.Ratio.Lines > 0 {
		fmt.Fprintf(&b, " comp-ratio=%.2f", s.Ratio.Value())
	}
	if s.MDHits+s.MDMisses > 0 {
		fmt.Fprintf(&b, " md-hit=%.1f%%", 100*s.MDHitRate())
	}
	return b.String()
}
