// Package caba is a cycle-level reproduction of "A Case for Core-Assisted
// Bottleneck Acceleration in GPUs: Enabling Flexible Data Compression with
// Assist Warps" (Vijaykumar et al., ISCA 2015).
//
// It bundles a SIMT GPU timing model (internal/gpu, internal/mem), the
// CABA assist-warp framework and its compression subroutine library
// (internal/core), reference compression algorithms (internal/compress),
// an energy model (internal/energy), and synthetic stand-ins for the
// paper's 27 applications (internal/workloads).
//
// The quickest path is Run: pick an application and a design, get the
// paper's metrics back:
//
//	res, err := caba.Run(caba.QuickConfig(), caba.CABABDI, "PVC", 1)
//	fmt.Println(res.IPC, res.BandwidthUtil, res.CompressionRatio)
//
// Custom kernels written in the textual ISA go through RunKernel; direct
// access to the compression algorithms and the assist-warp subroutine
// library is re-exported below for tooling and experimentation.
package caba

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"

	"github.com/caba-sim/caba/internal/audit"
	"github.com/caba-sim/caba/internal/compress"
	"github.com/caba-sim/caba/internal/config"
	"github.com/caba-sim/caba/internal/core"
	"github.com/caba-sim/caba/internal/energy"
	"github.com/caba-sim/caba/internal/gpu"
	"github.com/caba-sim/caba/internal/isa"
	"github.com/caba-sim/caba/internal/obs"
	"github.com/caba-sim/caba/internal/snapshot"
	"github.com/caba-sim/caba/internal/stats"
	"github.com/caba-sim/caba/internal/workloads"
)

// Config is the simulated-system configuration (the paper's Table 1).
type Config = config.Config

// Design is one of the evaluated system designs.
type Design = config.Design

// Metrics is the full set of raw counters and derived metrics of a run.
type Metrics = stats.Sim

// UseCase selects which assist-warp application(s) a Design deploys
// (Section 7): the zero value is compression-only (still gated by the
// design's Decomp setting), so every pre-existing design is unchanged.
type UseCase = config.UseCase

// The assist-warp use cases a Design can select (Design.UseCase).
const (
	UseCompression = config.UseCompression
	UsePrefetch    = config.UsePrefetch
	UseMemoization = config.UseMemoization
	UseCombined    = config.UseCombined
)

// App describes one benchmark application.
type App = workloads.App

// Kernel is a launchable grid for custom-kernel runs.
type Kernel = gpu.Kernel

// Simulator is the underlying GPU instance (exposed for advanced use:
// custom memory preparation, occupancy queries).
type Simulator = gpu.Simulator

// Occupancy is the static per-SM resource allocation of a kernel.
type Occupancy = gpu.Occupancy

// EnergyModel holds the event-energy constants.
type EnergyModel = energy.Model

// MetricsSeries is the cycle-sampled metrics time-series a run records
// when Config.SampleEvery is set (one MetricsSample per window).
type MetricsSeries = obs.Series

// MetricsSample is one row of a MetricsSeries.
type MetricsSample = obs.Sample

// StallAttribution is the per-warp stall attribution report a run
// records when Config.AttributeStalls is set.
type StallAttribution = obs.Attribution

// Trace is the Chrome-trace/Perfetto event recorder a run fills when
// Config.TraceFile is set.
type Trace = obs.Trace

// The evaluated designs (Section 6), plus the Section 7 assist-warp use
// cases (prefetching, memoization, and compression+prefetch combined).
var (
	Base         = config.DesignBase
	HWBDIMem     = config.DesignHWBDIMem
	HWBDI        = config.DesignHWBDI
	CABABDI      = config.DesignCABABDI
	IdealBDI     = config.DesignIdealBDI
	CABAFPC      = config.DesignCABAFPC
	CABACPack    = config.DesignCABACPack
	CABABest     = config.DesignCABABest
	CABAPrefetch = config.DesignCABAPrefetch
	CABAMemo     = config.DesignCABAMemo
	CABACombined = config.DesignCABACombined
)

// CacheCompressed returns a Figure 13 design: CABA-BDI plus capacity
// compression at "L1" or "L2" with 2x or 4x tags.
func CacheCompressed(level string, tagMult int) Design {
	return config.CacheCompressed(level, tagMult)
}

// Baseline returns the paper's Table 1 configuration.
func Baseline() Config { return config.Baseline() }

// QuickConfig returns the Table 1 configuration scaled down for fast
// interactive runs (full mechanisms, smaller working sets).
func QuickConfig() Config {
	c := config.Baseline()
	c.Scale = 0.05
	return c
}

// Applications returns the full benchmark pool.
func Applications() []App { return append([]App(nil), workloads.Apps...) }

// AppByName looks up one application descriptor.
func AppByName(name string) (*App, error) {
	a := workloads.ByName(name)
	if a == nil {
		return nil, fmt.Errorf("caba: unknown application %q", name)
	}
	return a, nil
}

// Result is the outcome of one simulation run.
type Result struct {
	App    string
	Design string

	Cycles           uint64
	IPC              float64
	BandwidthUtil    float64 // fraction of DRAM cycles the data bus is busy
	CompressionRatio float64 // DRAM-burst ratio, uncompressed/compressed
	EnergyNJ         float64 // total energy (event model)
	DRAMEnergyNJ     float64
	AvgPowerW        float64
	MDHitRate        float64
	InputRatio       float64 // compression ratio of the precompressed input

	// DecompMismatches counts assist-warp decompressions whose output no
	// longer matched the backing store (a later write raced the
	// compressed copy).
	DecompMismatches uint64
	// FaultsInjected / FaultsDetected / FaultsRecovered summarize the
	// fault-injection campaign (Config.Faults): faults placed, faults the
	// integrity checks caught, and faults fully recovered (corrupted
	// decompressions re-fetched raw, metadata misses re-read). All zero
	// when injection is disabled.
	FaultsInjected  uint64
	FaultsDetected  uint64
	FaultsRecovered uint64
	// Deprecated: always zero; the simulator no longer skips cycles.
	FFSkips uint64
	// Deprecated: always zero; the simulator no longer skips cycles.
	FFCycles uint64

	Occupancy Occupancy
	Stats     *Metrics

	// Series is the sampled metrics time-series (nil unless
	// Config.SampleEvery > 0). When Config.MetricsFile is also set the
	// series is additionally written there as JSONL (or CSV for a
	// ".csv" path) when the run completes.
	Series *MetricsSeries
	// Stalls is the per-warp stall attribution report (nil unless
	// Config.AttributeStalls). Its Sum always equals the run's unissued
	// scheduler slots: Cycles × NumSchedulers × NumSMs − IssueSlots[Active].
	Stalls *StallAttribution
}

// ErrInterrupted is wrapped into the error a run returns when it is
// stopped early — by a cancelled context (RunContext/RunKernelContext)
// or an explicit Simulator.Interrupt.
var ErrInterrupted = gpu.ErrInterrupted

// WedgeError is the structured report of a hung simulation (warps or the
// final memory drain that can never make progress again). Match it with
// errors.As; under fault injection a wedge is a deterministic outcome, so
// retrying the same cell reproduces it.
type WedgeError = gpu.WedgeError

// InvariantViolation is the runtime auditor's failure report
// (Config.AuditEvery), naming the broken invariant, the cycle, the SM and
// the recent flight-recorder trail. Match it with errors.As.
type InvariantViolation = audit.Violation

// FlightRecord is one flight-recorder event (Config.FlightRecorderDepth).
type FlightRecord = audit.Record

// SnapshotError is the structured report for a checkpoint blob that
// cannot be decoded (truncation, corruption, version or configuration
// skew). Match it with errors.As.
type SnapshotError = snapshot.FormatError

// Run simulates one application under one design and returns the paper's
// metrics. seed controls the synthetic data generator.
func Run(cfg Config, design Design, appName string, seed int64) (*Result, error) {
	return RunContext(context.Background(), cfg, design, appName, seed)
}

// RunContext is Run with cancellation: when ctx is cancelled or its
// deadline passes, the simulation stops at the next interrupt poll and
// returns an error wrapping both ctx.Err() and ErrInterrupted. No panic
// escapes: internal invariant violations come back as errors.
func RunContext(ctx context.Context, cfg Config, design Design, appName string, seed int64) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("caba: %s/%s: internal panic: %v", appName, design.Name, r)
		}
	}()
	sim, design, inputRatio, maxCycles, err := prepareApp(&cfg, design, appName, seed)
	if err != nil {
		return nil, err
	}
	if err := runSim(ctx, sim, maxCycles); err != nil {
		return nil, fmt.Errorf("caba: %s/%s: %w", appName, design.Name, err)
	}
	return finishResult(appName, design, &cfg, sim, inputRatio)
}

// prepareApp builds and prepares the simulator for one application run:
// it applies the static profiling gate (Section 4.3.1 — non-memory-bound
// applications keep the design label but run without assist warps),
// instantiates the workload and fills memory. Returns the simulator, the
// effective design, the input compression ratio and the cycle budget.
func prepareApp(cfg *Config, design Design, appName string, seed int64) (*gpu.Simulator, Design, float64, uint64, error) {
	app, err := AppByName(appName)
	if err != nil {
		return nil, design, 0, 0, err
	}
	if design.Decomp == config.DecompCABA && !app.MemoryBound {
		// The gate disables only the compression machinery: the prefetch
		// and memoization use cases carry their own throttles and stay on.
		name, uc := design.Name, design.UseCase
		design = config.DesignBase
		design.Name, design.UseCase = name, uc
	}
	inst, err := app.Instantiate(cfg)
	if err != nil {
		return nil, design, 0, 0, err
	}
	sim, err := gpu.New(cfg, design, inst.Kernel)
	if err != nil {
		return nil, design, 0, 0, err
	}
	inputRatio := inst.Prepare(sim, seed)
	return sim, design, inputRatio, inst.MaxCycles(), nil
}

// RunCheckpointed is RunContext plus durable mid-run checkpoints: every
// cfg.CheckpointEvery cycles the complete simulator state is saved to
// ckptPath (written atomically via a temp file and rename), and when
// ckptPath already holds a snapshot from an earlier killed, interrupted
// or crashed invocation, the run resumes from it mid-flight instead of
// starting over — the resumed run is bit-identical to an uninterrupted
// one.
//
// On success the checkpoint (and any stale crash report) is removed. On
// failure the last checkpoint is kept for postmortem resumption and a
// crash report — the error, a one-line repro, and the flight-recorder
// trail when Config.FlightRecorderDepth is set — is written to
// ckptPath+".crash".
//
// A resume snapshot that no longer decodes (torn file, version skew,
// different simulated configuration, a payload the decoder rejects) does
// not brick the run: it is deleted and the run starts from cycle zero on
// a freshly prepared simulator.
func RunCheckpointed(ctx context.Context, cfg Config, design Design, appName string, seed int64, ckptPath string) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("caba: %s/%s: internal panic: %v", appName, design.Name, r)
		}
	}()
	sim, design, inputRatio, maxCycles, err := prepareApp(&cfg, design, appName, seed)
	if err != nil {
		return nil, err
	}
	if blob, rerr := os.ReadFile(ckptPath); rerr == nil {
		if lerr := sim.LoadState(blob); lerr != nil {
			os.Remove(ckptPath)
			// LoadState decodes in place, so a rejected blob may have
			// overwritten part of sim: start over on a fresh one.
			if sim, _, _, _, err = prepareApp(&cfg, design, appName, seed); err != nil {
				return nil, err
			}
		}
	}
	if cfg.CheckpointEvery > 0 {
		sim.OnCheckpoint = func(cycle uint64, blob []byte) error {
			return snapshot.WriteFileAtomic(ckptPath, blob)
		}
	}
	if err := runSim(ctx, sim, maxCycles); err != nil {
		err = fmt.Errorf("caba: %s/%s: %w", appName, design.Name, err)
		repro := fmt.Sprintf("app=%s design=%s seed=%d scale=%g checkpoint_every=%d resume=%s",
			appName, design.Name, seed, cfg.Scale, cfg.CheckpointEvery, ckptPath)
		writeCrashReport(ckptPath+".crash", repro, err, sim)
		return nil, err
	}
	os.Remove(ckptPath)
	os.Remove(ckptPath + ".crash")
	return finishResult(appName, design, &cfg, sim, inputRatio)
}

// RunResumable is the checkpointed run primitive with caller-managed blob
// persistence: resume (when non-empty) is a checkpoint blob to restore
// before running, and save — invoked every cfg.CheckpointEvery cycles
// with the current cycle and a freshly sealed blob — owns durability
// (write it to disk, upload it to a coordinator, drop it). A save error
// aborts the run; the distributed sweep farm treats a checkpoint it could
// not persist as a failed cell rather than silently losing resumability.
//
// The returned resumedAt is the simulated cycle the run actually resumed
// from: 0 when resume was empty or did not decode (torn, corrupted, or
// bound to a different configuration). The run then starts from cycle
// zero on a freshly prepared simulator, since LoadState may have
// overwritten part of the first, mirroring RunCheckpointed's tolerance.
// A resumed run converges to the bit-identical result of an
// uninterrupted one.
//
// RunCheckpointed is this function plus file persistence, crash reports
// and checkpoint cleanup; workers that report to a coordinator instead of
// the local filesystem use RunResumable directly.
func RunResumable(ctx context.Context, cfg Config, design Design, appName string, seed int64, resume []byte, save func(cycle uint64, blob []byte) error) (res *Result, resumedAt uint64, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("caba: %s/%s: internal panic: %v", appName, design.Name, r)
		}
	}()
	sim, design, inputRatio, maxCycles, err := prepareApp(&cfg, design, appName, seed)
	if err != nil {
		return nil, 0, err
	}
	if len(resume) > 0 {
		if lerr := sim.LoadState(resume); lerr == nil {
			resumedAt = sim.Cycles()
		} else if sim, _, _, _, err = prepareApp(&cfg, design, appName, seed); err != nil {
			return nil, 0, err
		}
	}
	if cfg.CheckpointEvery > 0 && save != nil {
		sim.OnCheckpoint = save
	}
	if err := runSim(ctx, sim, maxCycles); err != nil {
		return nil, resumedAt, fmt.Errorf("caba: %s/%s: %w", appName, design.Name, err)
	}
	res, err = finishResult(appName, design, &cfg, sim, inputRatio)
	return res, resumedAt, err
}

// CheckpointCycle reads the simulated cycle a checkpoint blob was taken
// at without restoring it, validating the container's integrity (not its
// configuration binding). Blob custodians use it for progress reporting.
func CheckpointCycle(blob []byte) (uint64, error) { return gpu.SnapshotCycle(blob) }

// writeCrashReport writes the postmortem file for a failed checkpointed
// run: the error, a one-line repro, and the flight-recorder trail. Best
// effort — the report must never mask the run's own error.
func writeCrashReport(path, repro string, runErr error, sim *gpu.Simulator) {
	var b strings.Builder
	b.WriteString("caba crash report\n")
	fmt.Fprintf(&b, "repro: %s\n", repro)
	fmt.Fprintf(&b, "error: %v\n", runErr)
	trail := sim.FlightRecord()
	var we *WedgeError
	if errors.As(runErr, &we) && len(we.Trail) > 0 {
		trail = we.Trail
	}
	if len(trail) == 0 {
		b.WriteString("flight record: disabled (set Config.FlightRecorderDepth)\n")
	} else {
		b.WriteString("flight record (oldest first):\n")
		for _, rec := range trail {
			fmt.Fprintf(&b, "  %s\n", rec.String())
		}
	}
	_ = snapshot.WriteFileAtomic(path, []byte(b.String()))
}

// RunKernel simulates a custom kernel. prepare (optional) populates
// memory and precompresses inputs before the run.
func RunKernel(cfg Config, design Design, k *Kernel, prepare func(*Simulator)) (*Result, error) {
	return RunKernelContext(context.Background(), cfg, design, k, prepare)
}

// RunKernelContext is RunKernel with cancellation, with the same
// semantics as RunContext.
func RunKernelContext(ctx context.Context, cfg Config, design Design, k *Kernel, prepare func(*Simulator)) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("caba: kernel %s/%s: internal panic: %v", k.Prog.Name, design.Name, r)
		}
	}()
	sim, err := gpu.New(&cfg, design, k)
	if err != nil {
		return nil, err
	}
	if prepare != nil {
		prepare(sim)
	}
	if err := runSim(ctx, sim, 0); err != nil {
		return nil, err
	}
	return finishResult(k.Prog.Name, design, &cfg, sim, 1)
}

// runSim drives sim.Run under ctx: a watcher goroutine requests an
// interrupt when the context ends, and is always reaped before return
// (no goroutine outlives the call).
func runSim(ctx context.Context, sim *gpu.Simulator, maxCycles uint64) error {
	if ctx == nil || ctx.Done() == nil {
		return sim.Run(maxCycles)
	}
	finished := make(chan struct{})
	watcher := make(chan struct{})
	go func() {
		defer close(watcher)
		select {
		case <-ctx.Done():
			sim.Interrupt()
		case <-finished:
		}
	}()
	err := sim.Run(maxCycles)
	close(finished)
	<-watcher
	if err != nil && errors.Is(err, gpu.ErrInterrupted) && ctx.Err() != nil {
		return fmt.Errorf("%w (%w)", ctx.Err(), err)
	}
	return err
}

// finishResult derives the paper's metrics from a completed run and
// flushes the enabled observability outputs (metrics series, trace). The
// outputs are written only for successful runs; a write failure surfaces
// as the run's error.
func finishResult(app string, design Design, cfg *Config, sim *gpu.Simulator, inputRatio float64) (*Result, error) {
	m := energy.DefaultModel()
	energy.Apply(&m, cfg, design, sim.S)
	r := &Result{
		App:              app,
		Design:           design.Name,
		Cycles:           sim.Cycles(),
		IPC:              sim.S.IPC(),
		BandwidthUtil:    sim.S.BWUtilization(),
		CompressionRatio: sim.S.Ratio.Value(),
		EnergyNJ:         sim.S.TotalEnergy(),
		DRAMEnergyNJ:     sim.S.DRAMEnergy(),
		AvgPowerW:        sim.S.AvgPowerW(cfg.CoreClockMHz),
		MDHitRate:        sim.S.MDHitRate(),
		InputRatio:       inputRatio,
		DecompMismatches: sim.DecompMismatches(),
		FaultsInjected:   sim.S.FaultsInjected,
		FaultsDetected:   sim.S.FaultsDetected,
		FaultsRecovered:  sim.S.FaultsRecovered,
		Occupancy:        sim.Occupancy(),
		Stats:            sim.S,
	}
	r.Series = sim.Series()
	r.Stalls = sim.StallAttribution()
	if err := writeObsOutputs(cfg, sim); err != nil {
		return nil, err
	}
	return r, nil
}

// writeObsOutputs flushes the run's enabled observability files: the
// metrics series to Config.MetricsFile (JSONL, or CSV when the path ends
// in ".csv") and the event trace to Config.TraceFile (Chrome Trace Event
// JSON, loadable in Perfetto). Open trace spans are closed at the final
// cycle first, so the emitted file always passes schema validation. Both
// are written atomically (temp file + rename).
func writeObsOutputs(cfg *Config, sim *gpu.Simulator) error {
	if s := sim.Series(); s != nil && cfg.MetricsFile != "" {
		var b strings.Builder
		var err error
		if strings.HasSuffix(cfg.MetricsFile, ".csv") {
			err = s.WriteCSV(&b)
		} else {
			err = s.WriteJSONL(&b)
		}
		if err == nil {
			err = snapshot.WriteFileAtomic(cfg.MetricsFile, []byte(b.String()))
		}
		if err != nil {
			return fmt.Errorf("caba: writing metrics series: %w", err)
		}
	}
	if tr := sim.Trace(); tr != nil && cfg.TraceFile != "" {
		tr.CloseOpen(sim.Cycles())
		var b strings.Builder
		err := tr.Flush(&b)
		if err == nil {
			err = snapshot.WriteFileAtomic(cfg.TraceFile, []byte(b.String()))
		}
		if err != nil {
			return fmt.Errorf("caba: writing trace: %w", err)
		}
	}
	return nil
}

// Assemble compiles a kernel written in the textual ISA (the same
// CUDA-extension-style syntax assist-warp subroutines use).
func Assemble(name, src string) (*isa.Program, error) { return isa.Assemble(name, src) }

// --- Compression toolkit (re-exported for tooling and examples) ---

// AlgID identifies a compression algorithm.
type AlgID = compress.AlgID

// Compression algorithms.
const (
	AlgNone  = compress.AlgNone
	AlgBDI   = compress.AlgBDI
	AlgFPC   = compress.AlgFPC
	AlgCPack = compress.AlgCPack
	AlgBest  = compress.AlgBest
)

// LineSize is the cache-line granularity of compression (bytes).
const LineSize = compress.LineSize

// CompressedLine is one compressed cache line.
type CompressedLine = compress.Compressed

// CompressLine compresses one LineSize-byte cache line.
func CompressLine(alg AlgID, line []byte) (CompressedLine, error) {
	return compress.Compress(alg, line)
}

// DecompressLine expands c into out (LineSize bytes).
func DecompressLine(c CompressedLine, out []byte) error {
	return compress.Decompress(c, out)
}

// MeasureRatio compresses every line of data and returns the burst-level
// compression ratio.
func MeasureRatio(alg AlgID, data []byte) (float64, error) {
	return compress.MeasureRatio(alg, data)
}

// --- Assist-warp subroutine library (Section 4) ---

// AssistLibrary returns the preloaded Assist Warp Store: every
// compression/decompression subroutine plus the Section 7 routines.
func AssistLibrary() *core.Store { return core.BuildLibrary() }

// DecompressWithAssistWarp runs the matching decompression subroutine
// functionally over a compressed line, returning the reconstructed bytes
// and the number of warp instructions it executed — the same code path the
// simulated GPU charges cycle by cycle.
func DecompressWithAssistWarp(c CompressedLine) ([]byte, uint64, error) {
	out, ex, err := core.RunDecompression(core.BuildLibrary(), c)
	if err != nil {
		return nil, 0, err
	}
	return out, ex.Executed, nil
}

// CompressWithAssistWarp runs the CABA compression pass (the AWC-driven
// routine chain) over a raw line.
func CompressWithAssistWarp(alg AlgID, line []byte) (CompressedLine, uint64, error) {
	res, err := core.RunCompression(core.BuildLibrary(), alg, line)
	if err != nil {
		return CompressedLine{}, 0, err
	}
	return res.State, res.Instrs, nil
}
