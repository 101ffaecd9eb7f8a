package main

// The benchmark's self-check, run from this directory:
//
//	go test ./...
//
// It runs every workload at the tiny size below, holds the metric names a
// run prints to the ones BENCHMARK.json declares, and shows that a
// corrupted golden fails the output check.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// tiny keeps the benchmark's shapes at a size each run finishes in
// seconds. Its goldens are in golden/tiny.
var tiny = config{
	refs:          []string{"optmin", "upmin"},
	k:             1,
	sweepRef:      "space:n=3,t=2,r=2,v=0..1",
	analysisRef:   "search:upmin:n=3,t=2",
	coordRef:      "space:n=3,t=2,r=2,v=0..1",
	coordWorkers:  2,
	jobsSpaceRef:  "space:n=3,t=2,r=2,v=0..1",
	jobsSpaceSize: 776,
	jobsRangeSize: 64,
	jobsRandomFmt: "random:n=4,t=2,count=20,seed=%d",
	jobsCollapse:  "collapse:k=2,r=2..3",
	jobsSearches:  []string{"search:optmin:n=3,t=1", "search:upmin:n=3,t=1"},
}

type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// goldenTiny holds the goldens of the tiny size.
var goldenTiny = filepath.Join("golden", "tiny")

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// runTiny runs one workload at the tiny size against the goldens in
// dir and returns its exit code and parsed result line.
func runTiny(t *testing.T, workload string, seed int64, trace bool, dir string) (int, *result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := execute(&env{
		workload: workload, seed: seed, seconds: 1, trace: trace, cfg: tiny,
		golden: dir, outDir: t.TempDir(), log: &stderr,
	}, &stdout)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s seed=%d trace=%v: exit %d, no result line (%v); stderr:\n%s", workload, seed, trace, code, err, stderr.String())
	}
	return code, &res
}

func TestDeclaredMetricsArePrinted(t *testing.T) {
	d := readDeclared(t)
	var workloads []string
	for _, w := range d.Workloads {
		workloads = append(workloads, w.Name)
	}
	sort.Strings(workloads)
	if got := workloadNames(); strings.Join(got, ",") != strings.Join(workloads, ",") {
		t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark runs %v", workloads, got)
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range d.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range d.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			code, res := runTiny(t, w, 1, trace, goldenTiny)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: exit %d, correct %v, %d of %d failed", w, trace, code, res.Correct, res.Failed, res.Attempted)
			}
			for name, m := range res.Metrics {
				if unit, ok := want[trace][name]; !ok || unit != m.Unit {
					t.Errorf("%s trace=%v prints %s [%s], undeclared or declared with unit %q", w, trace, name, m.Unit, unit)
				}
			}
			for name := range want[trace] {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s trace=%v does not print declared metric %s", w, trace, name)
				}
			}
		}
	}
}

// A seed without recorded range-window and random goldens checks those
// jobs against local runs on the CLI's engine set-up.
func TestJobsUnrecordedSeedPasses(t *testing.T) {
	if code, res := runTiny(t, "jobs", 3, false, goldenTiny); code != 0 || !res.Correct || res.Failed != 0 {
		t.Errorf("jobs seed=3: exit %d, correct %v, %d of %d failed", code, res.Correct, res.Failed, res.Attempted)
	}
}

// corruptions names, per workload, the golden file to corrupt and the
// text to change in it: a count in the rendered tables, and the
// collapse job's undecided count (a job every 16-job block submits
// twice) in jobs.json.
var corruptions = map[string][3]string{
	"sweep":       {"sweep.txt", "0", "9"},
	"analyze":     {"analyze.txt", "0", "9"},
	"coordinated": {"coordinated.txt", "0", "9"},
	"jobs":        {"jobs.json", `"undecided":0`, `"undecided":9`},
}

func TestCorruptedGoldenFails(t *testing.T) {
	for w, c := range corruptions {
		file, old, new := c[0], c[1], c[2]
		dir := t.TempDir()
		entries, err := os.ReadDir(goldenTiny)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(goldenTiny, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if e.Name() == file {
				if !bytes.Contains(b, []byte(old)) {
					t.Fatalf("%s holds no %q to corrupt", file, old)
				}
				b = bytes.Replace(b, []byte(old), []byte(new), 1)
			}
			if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		for _, trace := range []bool{false, true} {
			code, res := runTiny(t, w, 1, trace, dir)
			if code == 0 || res.Correct || res.Failed == 0 {
				t.Errorf("%s trace=%v with a corrupted golden: exit %d, correct %v, failed %d of %d; want a failure",
					w, trace, code, res.Correct, res.Failed, res.Attempted)
			}
		}
	}
}
