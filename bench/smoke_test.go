package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the bench binary: the
// smoke test's parent process re-executes it as workload children, which
// inherit BENCH_AS_MAIN and run the benchmark's main instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("BENCH_AS_MAIN") == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the part of the repository's BENCHMARK.json the
// benchmark's metric tables must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %+v\nwant %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the perLayer table")
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range allWorkloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads = %v, want %v", names, want)
	}
}

// TestSmokeEveryWorkload runs the whole benchmark — parent, set-up and
// measuring children, traced replay and probes — on every workload at two
// cells, and checks that every metric of BENCHMARK.json is emitted with
// its unit: the end-to-end ones as metric lines, the per-layer ones in the
// JSON result line.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the benchmark's child processes")
	}
	b := loadBenchmarkJSON(t)
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil { // children write .bench_build here
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	t.Setenv("BENCH_AS_MAIN", "1")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--seconds", "1", "--max-cells", "2", "--trace", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	units := make(map[string]string) // "workload metric" -> unit
	for _, l := range lines {
		if f := strings.Fields(l); len(f) == 5 && f[0] != "#" {
			units[f[0]+" "+f[1]] = f[3]
		}
	}
	var result struct {
		Correct   bool                              `json:"correct"`
		Attempted int                               `json:"attempted"`
		Workloads map[string]map[string]metricValue `json:"workloads"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &result); err != nil {
		t.Fatalf("last line is not the JSON result: %v", err)
	}
	if !result.Correct || result.Attempted != 2*len(b.Workloads) {
		t.Errorf("correct=%v attempted=%d, want true and %d", result.Correct, result.Attempted, 2*len(b.Workloads))
	}
	for _, w := range b.Workloads {
		for _, m := range b.EndToEnd {
			if got := units[w.Name+" "+m.Name]; got != m.Unit {
				t.Errorf("%s %s: unit %q printed, want %q", w.Name, m.Name, got, m.Unit)
			}
		}
		for _, m := range b.PerLayer {
			v, ok := result.Workloads[w.Name][m.Name]
			if !ok || v.Unit != m.Unit {
				t.Errorf("%s %s: missing from the JSON result or unit %q, want %q", w.Name, m.Name, v.Unit, m.Unit)
			}
			if got := units[w.Name+" "+m.Name]; got != m.Unit {
				t.Errorf("%s %s: unit %q printed, want %q", w.Name, m.Name, got, m.Unit)
			}
		}
	}
}
