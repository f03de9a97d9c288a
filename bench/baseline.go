package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// fingerprint identifies the host a baseline was measured on. Host times
// compare only between runs on the same CPU model, CPU count and Go
// toolchain; Commit is informational.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func hostFingerprint() fingerprint {
	fp := fingerprint{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			fp.Commit = rev + dirty
		}
	}
	return fp
}

// mismatch lists the host fields in which fp differs from base.
func (fp fingerprint) mismatch(base fingerprint) []string {
	var out []string
	check := func(name string, a, b any) {
		if a != b {
			out = append(out, fmt.Sprintf("%s: baseline %v, this host %v", name, b, a))
		}
	}
	check("cpu", fp.CPU, base.CPU)
	check("nproc", fp.NumCPU, base.NumCPU)
	check("gomaxprocs", fp.GOMAXPROCS, base.GOMAXPROCS)
	check("go", fp.Go, base.Go)
	return out
}

// baselineMetric is one metric's spread over the recorded runs.
type baselineMetric struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound,omitempty"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

type baselineWorkload struct {
	TailPercentile float64                    `json:"tail_percentile"`
	ResultDigest   string                     `json:"result_digest"`
	Metrics        map[string]*baselineMetric `json:"metrics"`
}

// baseline is the recorded reference later changes name their metric and
// workload against.
type baseline struct {
	Fingerprint fingerprint                  `json:"fingerprint"`
	Recorded    string                       `json:"recorded"`
	Seed        int64                        `json:"seed"`
	Seconds     int                          `json:"seconds"`
	Runs        int                          `json:"runs"`
	Paths       []string                     `json:"paths"`
	Workloads   map[string]*baselineWorkload `json:"workloads"`
}

// recordBaseline measures runs untraced and runs traced runs of every
// workload in list and writes their medians and quartiles to path.
func recordBaseline(path string, list []*workload, o runOpts, runs int, stdout, stderr io.Writer) int {
	b := baseline{
		Fingerprint: hostFingerprint(),
		Recorded:    time.Now().UTC().Format(time.RFC3339),
		Seed:        o.seed,
		Seconds:     int(o.seconds / time.Second),
		Runs:        runs,
		Paths:       []string{"bench"},
		Workloads:   make(map[string]*baselineWorkload),
	}
	for _, w := range list {
		bw := &baselineWorkload{Metrics: make(map[string]*baselineMetric)}
		b.Workloads[w.name] = bw
		for _, trace := range []bool{false, true} {
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			values := make(map[string][]float64)
			for i := 0; i < runs; i++ {
				ro := o
				ro.trace = trace
				r, err := measure(w, ro, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
					return 1
				}
				if r.rep.Failed > 0 {
					printResult(stdout, r, ro)
					return 1
				}
				if bw.ResultDigest != "" && bw.ResultDigest != r.rep.Digest {
					fmt.Fprintf(stderr, "bench: %s: result digest changed between runs of one seed\n", w.name)
					return 1
				}
				bw.ResultDigest, bw.TailPercentile = r.rep.Digest, r.rep.TailPct
				for _, d := range defs {
					values[d.Name] = append(values[d.Name], r.metrics[d.Name])
				}
				fmt.Fprintf(stdout, "# recorded %s run %d/%d (trace %v)\n", w.name, i+1, runs, trace)
			}
			for _, d := range defs {
				q1, q2, q3 := quartiles(values[d.Name])
				bw.Metrics[d.Name] = &baselineMetric{Unit: d.Unit, Better: d.Better, Bound: d.Bound, Median: q2, Q1: q1, Q3: q3, Values: values[d.Name]}
			}
		}
	}
	raw, err := json.MarshalIndent(b, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(raw, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: writing baseline: %v\n", err)
		return 1
	}
	return 0
}

// compareBaseline measures each workload of list that the baseline holds
// once, with the baseline's seed and length, and prints every end-to-end
// delta against its bound. It refuses (exit 2) to gate across hosts, and
// exits 1 when a metric regressed past its bound or a result changed.
func compareBaseline(path string, list []*workload, stdout, stderr io.Writer) int {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	var b baseline
	if err := json.Unmarshal(raw, &b); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", path, err)
		return 1
	}
	if diff := hostFingerprint().mismatch(b.Fingerprint); len(diff) > 0 {
		fmt.Fprintf(stderr, "bench: %s was recorded on another host; host times do not compare:\n  %s\n", path, strings.Join(diff, "\n  "))
		return 2
	}
	o := runOpts{seed: b.Seed, seconds: time.Duration(b.Seconds) * time.Second}
	status := 0
	fmt.Fprintf(stdout, "%-16s %-20s %12s %12s %12s %8s %6s  %s\n", "workload", "metric", "base_median", "base_iqr", "current", "delta", "bound", "verdict")
	for _, w := range list {
		bw := b.Workloads[w.name]
		if bw == nil {
			continue
		}
		r, err := measure(w, o, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		if r.rep.Failed > 0 {
			printResult(stdout, r, o)
			status = 1
		}
		for _, d := range endToEnd {
			bm := bw.Metrics[d.Name]
			if bm == nil {
				continue
			}
			cur := r.metrics[d.Name]
			verdict := judge(d, bm, cur)
			if verdict == "REGRESSED" || verdict == "CHANGED" {
				status = 1
			}
			fmt.Fprintf(stdout, "%-16s %-20s %12.5g %12.5g %12.5g %+7.1f%% %5.0f%%  %s\n",
				w.name, d.Name, bm.Median, bm.Q3-bm.Q1, cur, 100*(cur/bm.Median-1), 100*d.Bound, verdict)
		}
		digestVerdict := "same"
		if r.rep.Digest != bw.ResultDigest {
			digestVerdict, status = "CHANGED (simulated results differ)", 1
		}
		fmt.Fprintf(stdout, "%-16s %-20s %12s %12s %12s  %s\n", w.name, "result_digest", bw.ResultDigest, "", r.rep.Digest, digestVerdict)
	}
	return status
}

// judge classifies one end-to-end metric against the baseline: a
// simulated metric must repeat exactly; a host metric regressed when it is
// worse than the baseline median by more than its bound, and is
// unresolved when the baseline's own spread is wider than the bound.
func judge(d metricDef, bm *baselineMetric, cur float64) string {
	if d.Name == "sim_speedup_geomean" {
		if cur != bm.Median {
			return "CHANGED"
		}
		return "same"
	}
	worse := cur/bm.Median - 1
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > d.Bound:
		return "REGRESSED"
	case (bm.Q3-bm.Q1)/bm.Median > d.Bound:
		return "unresolved (baseline spread exceeds bound)"
	}
	return "ok"
}
