package mem

import (
	"fmt"

	"github.com/caba-sim/caba/internal/compress"
	"github.com/caba-sim/caba/internal/config"
	"github.com/caba-sim/caba/internal/faults"
	"github.com/caba-sim/caba/internal/obs"
	"github.com/caba-sim/caba/internal/stats"
	"github.com/caba-sim/caba/internal/timing"
)

// System is the shared memory system below the SMs' L1 caches: the
// crossbar, the L2 partitions and the DRAM channels. The GPU core model
// calls ReadLine/WriteLine and receives fills through OnFill.
type System struct {
	Cfg    *config.Config
	Design config.Design
	Q      *timing.Queue
	S      *stats.Sim
	Dom    *Domain
	X      *Xbar
	parts  []*Partition

	// Inj draws deterministic fault-injection decisions; nil when the
	// campaign is disabled. Its sites run in the simulator's fixed order
	// (SM ticks in index order, then event delivery), so the decision
	// sequence — and therefore every injected fault — is deterministic.
	Inj *faults.Injector

	// OnFill is invoked (at SM arrival time) for every completed ReadLine.
	OnFill func(sm int, lineAddr uint64, user any)
}

// AttachTrace routes each DRAM channel's data-bus occupancy spans onto
// the given trace shard (tid = channel id). The simulator runs on one
// goroutine, so one shard serves the whole memory system.
func (sys *System) AttachTrace(sh *obs.TraceShard) {
	for i, p := range sys.parts {
		sh.ThreadName(i, fmt.Sprintf("channel %d", i))
		p.ch.tr = sh
	}
}

// NewSystem builds the memory system.
func NewSystem(cfg *config.Config, design config.Design, q *timing.Queue, s *stats.Sim, dom *Domain) *System {
	sys := &System{
		Cfg:    cfg,
		Design: design,
		Q:      q,
		S:      s,
		Dom:    dom,
		X:      NewXbar(q, s, cfg.NumChannels, 8),
		Inj:    faults.New(cfg.Faults),
	}
	sys.parts = make([]*Partition, cfg.NumChannels)
	for i := range sys.parts {
		sys.parts[i] = newPartition(i, sys)
	}
	return sys
}

// PartitionOf maps a line address to its memory partition.
func (sys *System) PartitionOf(lineAddr uint64) int {
	return int(lineAddr / compress.LineSize % uint64(sys.Cfg.NumChannels))
}

// ReadLine requests a line on behalf of SM sm. user is returned untouched
// via OnFill.
func (sys *System) ReadLine(sm int, lineAddr uint64, user any) {
	p := sys.PartitionOf(lineAddr)
	// A read request is a single control flit.
	sys.X.ToPartition(p, 1, sys.parts[p].event(evArriveRead, sm, lineAddr, user))
}

// ReadLineRaw requests the uncompressed copy of a line — the
// fault-recovery refetch path after a detected decompression corruption.
// The request bypasses the MSHR (recovery is rare and must not merge with
// compressed-line waiters whose fills carry the corrupt payload) and the
// response always charges full-line flits, so recovery costs real
// bandwidth. The recovery channel itself is assumed protected: no faults
// are injected on it, otherwise a hot campaign could livelock recovery.
func (sys *System) ReadLineRaw(sm int, lineAddr uint64, user any) {
	p := sys.PartitionOf(lineAddr)
	sys.X.ToPartition(p, 1, sys.parts[p].event(evArriveReadRaw, sm, lineAddr, user))
}

// WriteLine sends a full-line write toward L2. The payload size (and hence
// flit count) is the line's current compressed size for ScopeL2 designs —
// the SM compressed it before calling — or the full line otherwise.
func (sys *System) WriteLine(sm int, lineAddr uint64) {
	p := sys.PartitionOf(lineAddr)
	flits := 1 + sys.payloadFlits(lineAddr)
	sys.X.ToPartition(p, flits, event{p: sys.parts[p], ln: lineAddr, kind: evArriveWrite})
}

// payloadFlits returns the data flits a line occupies on the interconnect.
func (sys *System) payloadFlits(lineAddr uint64) int {
	size := compress.LineSize
	if sys.Design.Scope == config.ScopeL2 {
		if st := sys.Dom.State(lineAddr); st.IsCompressed() {
			size = st.Size()
		}
	}
	n := (size + sys.Cfg.FlitSize - 1) / sys.Cfg.FlitSize
	if n < 1 {
		n = 1
	}
	return n
}

// respFlits is the response packet size: header + payload.
func (sys *System) respFlits(lineAddr uint64) int {
	return 1 + sys.payloadFlits(lineAddr)
}

// rawFlits is the response packet size for an uncompressed line.
func (sys *System) rawFlits() int {
	return 1 + (compress.LineSize+sys.Cfg.FlitSize-1)/sys.Cfg.FlitSize
}

// ArrivesCompressed reports the compression state a line has when it
// reaches the SM: compressed only for ScopeL2 designs (HW-BDI-Mem
// decompresses at the memory controller, so its lines arrive raw).
func (sys *System) ArrivesCompressed(lineAddr uint64) compress.Compressed {
	if sys.Design.Scope != config.ScopeL2 {
		return compress.Compressed{Alg: compress.AlgNone}
	}
	return sys.Dom.State(lineAddr)
}

// Drained reports whether the memory system has no pending work.
func (sys *System) Drained() bool {
	for _, p := range sys.parts {
		if p.mshr.Outstanding() > 0 || p.ch.QueueDepth() > 0 || p.ch.busy {
			return false
		}
	}
	return sys.Q.Len() == 0
}

// FinishStats folds component-local counters into the run stats.
// MemCycles is the total data-bus capacity in burst slots (memory cycles
// times channels), so DRAMBusyCycles/MemCycles is the paper's bandwidth
// utilization.
func (sys *System) FinishStats(coreCycles uint64) {
	sys.S.Cycles = coreCycles
	sys.S.MemCycles = uint64(float64(coreCycles) * sys.Cfg.MemCyclesPerCoreCycle() *
		float64(sys.Cfg.NumChannels))
}
