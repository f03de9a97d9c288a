// Command experiments regenerates the paper's tables and figures.
//
//	experiments -fig 7            # one figure (1,2,7,8,9,10,11,12,13)
//	experiments -all              # everything
//	experiments -table 1          # print the live Table 1 configuration
//	experiments -scale 0.25       # bigger working sets (slower, stabler)
//	experiments -full             # paper-scale working sets (slow)
//	experiments -all -checkpoint runs/ -run-timeout 10m -retries 1
//	                              # hardened sweep: resumable, deadline-bounded
//	experiments -obs pvc -design CABA-BDI -obs-dir obs/
//	                              # one fully-instrumented cell: metrics
//	                              # time-series, stall attribution, trace
//
// Every figure of one invocation shares its cells: a cell is named by the
// farm's content key (app, seed, design and result-determining
// configuration) and simulated once. With -checkpoint DIR, completed
// cells also persist in DIR, a result store in the farm's layout, as the
// sweep goes; rerunning the same command resumes from where the previous
// invocation stopped, and a run at another scale or seed simply misses.
// Failed cells are reported together at the end while every figure still
// renders its completed cells.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"github.com/caba-sim/caba/experiments"
)

func main() { os.Exit(realMain()) }

// realMain returns the process exit code; keeping it out of main lets the
// deferred profile writers run before exit.
func realMain() int {
	fig := flag.Int("fig", 0, "figure number to regenerate (1,2,7,8,9,10,11,12,13)")
	figs := flag.String("figs", "", "comma-separated figure list, e.g. 7,8,9")
	table := flag.Int("table", 0, "table number to print (1)")
	all := flag.Bool("all", false, "regenerate every figure")
	scale := flag.Float64("scale", 0.15, "working-set scale (1.0 = paper scale)")
	full := flag.Bool("full", false, "shorthand for -scale 1.0")
	seed := flag.Int64("seed", 1, "synthetic data seed")
	parallel := flag.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS)")
	checkpoint := flag.String("checkpoint", "",
		"result-store directory (created if missing) persisting completed cells by content key; an interrupted sweep resumes from it, and in-flight cells snapshot mid-run state under DIR/blobs/ for bit-identical resume")
	checkpointEvery := flag.Uint64("checkpoint-every", 0,
		"mid-run snapshot cadence in simulated cycles (0 = default; needs -checkpoint)")
	runTimeout := flag.Duration("run-timeout", 0,
		"wall-clock deadline per simulation (0 = none); timed-out cells are reported and the sweep continues")
	retries := flag.Int("retries", 0, "extra attempts per failed simulation, with exponential backoff")
	farmURL := flag.String("farm", "",
		"farm coordinator base URL (e.g. http://localhost:8423): dispatch cells to a worker fleet (see cmd/farmd, cmd/farmworker) instead of simulating in-process")
	obsApp := flag.String("obs", "",
		"run ONE instrumented cell for this app: metrics time-series + stall attribution + Perfetto trace")
	obsDesign := flag.String("design", "CABA-BDI",
		"design for -obs ("+strings.Join(experiments.ObsDesignNames(), ", ")+")")
	obsDir := flag.String("obs-dir", "obs", "output directory for -obs artifacts")
	sampleEvery := flag.Uint64("sample-every", 0,
		"metrics sampling cadence in cycles for -obs (0 = auto from -scale)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the profile shows live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}()
	}

	o := experiments.Defaults(os.Stdout)
	o.Scale = *scale
	if *full {
		o.Scale = 1.0
	}
	o.Seed = *seed
	o.Parallel = *parallel
	o.Checkpoint = *checkpoint
	o.CheckpointEvery = *checkpointEvery
	o.RunTimeout = *runTimeout
	o.Retries = *retries
	o.FarmURL = *farmURL

	run := func(n int) error {
		start := time.Now()
		var err error
		switch n {
		case 1:
			_, err = experiments.Fig1(o)
		case 2:
			_, err = experiments.Fig2(o)
		case 7:
			_, err = experiments.Fig7(o)
		case 8:
			_, err = experiments.Fig8(o)
		case 9:
			_, err = experiments.Fig9(o)
		case 10, 11:
			_, err = experiments.Fig10and11(o)
		case 12:
			_, err = experiments.Fig12(o)
		case 13:
			_, err = experiments.Fig13(o)
		case 14:
			_, err = experiments.Fig14(o)
		default:
			return fmt.Errorf("unknown figure %d", n)
		}
		fmt.Fprintf(os.Stdout, "(figure %d: %v)\n\n", n, time.Since(start).Round(time.Second))
		return err
	}

	switch {
	case *obsApp != "":
		d, ok := experiments.ObsDesign(*obsDesign)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown design %q (want one of %s)\n",
				*obsDesign, strings.Join(experiments.ObsDesignNames(), ", "))
			return 2
		}
		if _, err := experiments.ObsRun(o, *obsApp, d, *obsDir, *sampleEvery); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return 1
		}
	case *table == 1:
		experiments.Table1(o)
	case *figs != "":
		for _, part := range strings.Split(*figs, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fmt.Fprintln(os.Stderr, "bad figure:", part)
				return 2
			}
			if err := run(n); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				return 1
			}
		}
	case *all:
		for _, n := range []int{1, 2, 7, 8, 9, 10, 12, 13, 14} {
			if err := run(n); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				return 1
			}
		}
	case *fig != 0:
		if err := run(*fig); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return 1
		}
	default:
		flag.Usage()
		return 2
	}
	return 0
}
