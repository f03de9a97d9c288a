// Command bench is the repository benchmark. It drives the simulator only
// through public entry points (caba.RunContext, the farm coordinator's
// Handler and workers, and — in the traced run — the workload, gpu, core
// and compress packages' exported functions) on four named workloads, and
// prints every metric as "workload metric value unit better" followed by
// one JSON result line.
//
// Usage (from the repository root):
//
//	bash bench/run.sh [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--trace-out FILE]
//	bash bench/run.sh --record bench/baseline.json [--runs 3]
//	bash bench/run.sh --compare bench/baseline.json
//
// Each workload runs in its own child process, a re-exec of this binary,
// so memory and set-up time are per workload. See README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// setupSamples is how many times a run sets its workload up; setup_s is
// the median. The middle one is the measuring child, the others are
// set-up-only children, half before it and half after, so that the
// set-ups meet the host at two moments about a run apart.
const setupSamples = 9

// childTimeout bounds one child process.
const childTimeout = 170 * time.Second

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload (default: all four)")
	seed := fs.Int64("seed", 1, "seed from which every cell's seed is generated")
	seconds := fs.Int("seconds", 17, "run length: each workload runs the whole number of passes that takes about this long, with its reps, on the reference host")
	trace := fs.Int("trace", 0, "1 replays the window traced and reports per-layer metrics")
	traceOut := fs.String("trace-out", "", "with --trace 1, write each workload's spans to FILE (workload name inserted)")
	record := fs.String("record", "", "measure --runs untraced and traced runs per workload and write the baseline to FILE")
	compare := fs.String("compare", "", "measure once per workload and compare against the baseline in FILE")
	runs := fs.Int("runs", 3, "runs per workload for --record")
	maxCells := fs.Int("max-cells", 0, "cap each run at N cells, for quick checks (0 = no cap)")
	child := fs.String("child", "", "internal: run as a workload child process (measure or setup)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 1 || *runs < 1 || *maxCells < 0 {
		fmt.Fprintln(stderr, "bench: bad arguments (see -h)")
		return 2
	}
	o := runOpts{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, traceOut: *traceOut, maxCells: *maxCells}
	list := allWorkloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		list = []*workload{w}
	}

	switch {
	case *child != "":
		if len(list) != 1 || (*child != "measure" && *child != "setup") {
			fmt.Fprintln(stderr, "bench: --child needs measure|setup and one --workload")
			return 2
		}
		rep := runChild(list[0], o, *child == "setup")
		raw, _ := json.Marshal(rep) // runChild leaves only finite floats, so it encodes
		fmt.Fprintf(stdout, "%s\n", raw)
		return 0
	case *record != "":
		return recordBaseline(*record, list, o, *runs, stdout, stderr)
	case *compare != "":
		return compareBaseline(*compare, list, stdout, stderr)
	}

	var results []*workloadResult
	correct := true
	for _, w := range list {
		r, err := measure(w, o, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		printResult(stdout, r, o)
		results = append(results, r)
		correct = correct && r.rep.Failed == 0
	}
	printSummary(stdout, results, o.trace)
	if !correct {
		return 1
	}
	return 0
}

// workloadResult is one workload's measured run as the parent sees it.
type workloadResult struct {
	w       *workload
	rep     *childReport
	metrics map[string]float64
}

// measure runs one workload: setupSamples children, the middle one the
// measuring child. It adds setup_s (the median set-up, each scaled to the
// reference host's speed) and ok_frac to the measuring child's metrics.
func measure(w *workload, o runOpts, stderr io.Writer) (*workloadResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var setups []float64
	var rep *childReport
	for i := 0; i < setupSamples; i++ {
		mode := "setup"
		if i == setupSamples/2 {
			mode = "measure"
		}
		r, setup, err := spawn(exe, w, o, mode, stderr)
		if err != nil {
			return nil, err
		}
		if mode == "measure" {
			rep = r
		} else if r.Failed > 0 {
			return nil, fmt.Errorf("set-up failed: %v", r.Failures)
		}
		setups = append(setups, setup*r.SetupScale)
	}
	m := rep.Metrics
	if m == nil {
		m = make(map[string]float64)
	}
	m["setup_s"] = median(setups)
	m["ok_frac"] = 1 - float64(rep.Failed)/float64(max(rep.Attempted, 1))
	return &workloadResult{w: w, rep: rep, metrics: m}, nil
}

// spawn re-executes this binary as a child for w and returns its report
// and its set-up time (exec to first measured dispatch, in seconds).
func spawn(exe string, w *workload, o runOpts, mode string, stderr io.Writer) (*childReport, float64, error) {
	args := []string{"--child", mode, "--workload", w.name,
		"--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.Itoa(int(o.seconds / time.Second)),
		"--trace", map[bool]string{false: "0", true: "1"}[o.trace],
		"--max-cells", strconv.Itoa(o.maxCells)}
	if o.trace && o.traceOut != "" {
		args = append(args, "--trace-out", spansPath(o.traceOut, w.name))
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("%s child: %w", mode, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep childReport
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return nil, 0, fmt.Errorf("%s child report: %w", mode, err)
	}
	return &rep, float64(rep.ReadyNS-start.UnixNano()) / 1e9, nil
}

// spansPath inserts the workload name before path's extension.
func spansPath(path, workload string) string {
	dot := strings.LastIndex(path, ".")
	if dot <= strings.LastIndex(path, "/") {
		return path + "." + workload
	}
	return path[:dot] + "." + workload + path[dot:]
}

// printResult prints one workload's metric lines — the end-to-end ones,
// and with tracing the per-layer ones — and its notes.
func printResult(out io.Writer, r *workloadResult, o runOpts) {
	rep := r.rep
	fmt.Fprintf(out, "# %s: %d cells in %d passes (seeds %d..%d), each run %d times in %.2f s, cell_ms_tail = p%.4g\n",
		r.w.name, rep.Attempted, rep.Passes, o.seed, o.seed+int64(rep.Passes)-1, reps, rep.Window, rep.TailPct)
	defs := endToEnd
	if o.trace {
		defs = append(append([]metricDef(nil), endToEnd...), perLayer...)
	}
	for _, d := range defs {
		if v, ok := r.metrics[d.Name]; ok {
			fmt.Fprintf(out, "%s %s %s %s %s\n", r.w.name, d.Name, strconv.FormatFloat(v, 'g', -1, 64), d.Unit, d.Better)
		}
	}
	fmt.Fprintf(out, "# %s result_digest %s\n", r.w.name, rep.Digest)
	for _, n := range rep.Notes {
		fmt.Fprintf(out, "# %s %s\n", r.w.name, n)
	}
	for i, f := range rep.Failures {
		if i == 20 {
			fmt.Fprintf(out, "# %s ... %d more failures\n", r.w.name, len(rep.Failures)-i)
			break
		}
		fmt.Fprintf(out, "# %s FAILED %s\n", r.w.name, f)
	}
}

// metricValue is one metric in the JSON result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultMetrics picks the JSON metrics: the end-to-end set untraced, the
// per-layer set traced.
func resultMetrics(m map[string]float64, trace bool) map[string]metricValue {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{m[d.Name], d.Unit}
	}
	return out
}

// printSummary prints the JSON result line: for one workload exactly
// {correct, attempted, failed, metrics}; for several, the same totals with
// the metrics of each workload under "workloads".
func printSummary(out io.Writer, results []*workloadResult, trace bool) {
	type line struct {
		Correct   bool                              `json:"correct"`
		Attempted int                               `json:"attempted"`
		Failed    int                               `json:"failed"`
		Metrics   map[string]metricValue            `json:"metrics,omitempty"`
		Workloads map[string]map[string]metricValue `json:"workloads,omitempty"`
	}
	l := line{Correct: true}
	for _, r := range results {
		l.Attempted += r.rep.Attempted
		l.Failed += r.rep.Failed
		l.Correct = l.Correct && r.rep.Failed == 0
	}
	if len(results) == 1 {
		l.Metrics = resultMetrics(results[0].metrics, trace)
	} else {
		l.Workloads = make(map[string]map[string]metricValue)
		for _, r := range results {
			l.Workloads[r.w.name] = resultMetrics(r.metrics, trace)
		}
	}
	raw, err := json.Marshal(l)
	if err != nil {
		panic(err) // finite floats and strings always encode
	}
	fmt.Fprintf(out, "%s\n", raw)
}
