// Command farmworker executes simulation cells leased from a farmd
// coordinator. Run as many as you like, on as many machines as can reach
// the coordinator:
//
//	farmworker -coordinator http://localhost:8423 -name $(hostname)-1
//
// Each cell runs through the panic-safe resumable engine path: if the
// coordinator holds a checkpoint blob from a previous (killed, hung or
// drained) attempt, the run resumes mid-flight and still produces the
// bit-identical result of an uninterrupted run. On SIGINT/SIGTERM the
// worker drains gracefully — the in-flight cell stops at its next
// interrupt poll and is released back to the queue with its last
// uploaded checkpoint intact.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/caba-sim/caba/internal/farm"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	coordinator := flag.String("coordinator", "http://localhost:8423", "farmd base URL")
	name := flag.String("name", "", "worker name in leases and logs (default: host-pid)")
	cellTimeout := flag.Duration("cell-timeout", 0,
		"wall-clock bound per cell; an overrun is a transient failure the coordinator may retry (0 = none)")
	checkpointEvery := flag.Uint64("checkpoint-every", 0,
		"checkpoint-upload cadence in simulated cycles for cells that do not set their own (0 = default)")
	exitWhenDrained := flag.Bool("exit-when-drained", false,
		"exit once every submitted cell is terminal instead of polling for future sweeps")
	memLimitMB := flag.Int64("mem-limit-mb", 0,
		"per-cell live-heap budget in MiB; a cell that blows it is aborted as resource-exhausted, not the process (0 = none)")
	cpuTimeLimit := flag.Duration("cpu-time", 0,
		"per-cell CPU-time budget (user+system, all cores), distinct from -cell-timeout wall clock (0 = none)")
	minDiskFreeMB := flag.Int64("min-disk-free-mb", 0,
		"skip checkpoint uploads while local disk free space is below this many MiB (0 = no preflight)")
	flag.Parse()

	if *name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	w := farm.NewWorker(*coordinator, farm.WorkerConfig{
		Name:            *name,
		CellTimeout:     *cellTimeout,
		MemLimit:        *memLimitMB << 20,
		CPUTime:         *cpuTimeLimit,
		MinDiskFree:     *minDiskFreeMB << 20,
		CheckpointEvery: *checkpointEvery,
		PollInterval:    200 * time.Millisecond,
		ExitWhenDrained: *exitWhenDrained,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	fmt.Fprintf(os.Stderr, "farmworker %s: leasing from %s\n", *name, *coordinator)
	if err := w.Run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "farmworker:", err)
		return 1
	}
	return 0
}
