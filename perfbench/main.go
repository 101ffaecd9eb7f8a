// Command perfbench drives the four real entry points of setconsensus —
// cli.SweepWorkload, cli.RunAnalysis, cli.CoordinateWorkload and a
// setconsensusd service.Server reached through service.Client — in their
// default configurations, checks every output against a golden, and
// prints one JSON result line.
//
//	perfbench -workload sweep -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1
// it carries the per-layer metrics of a separate traced run, prints the
// workload's layer table to stderr, and writes the run's spans to the
// output directory. See README.md for the metric definitions.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// env is everything one benchmark run needs: the parsed flags, the
// workload sizes, and where goldens, scratch files and diagnostics go.
type env struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	cfg      config
	golden   string // directory of the recorded goldens
	outDir   string // scratch: checkpoints and span files
	log      io.Writer
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runners maps each workload name to the function that runs it.
var runners = map[string]func(ctx context.Context, e *env) (*result, error){
	"sweep":       runSweep,
	"analyze":     runAnalyze,
	"coordinated": runCoordinated,
	"jobs":        runJobs,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs one workload and prints its result line. It
// returns the process exit code: 0 when every output matched its golden,
// 1 when an output check failed (the result is still printed), 2 when
// the run could not be made at all (nothing is printed).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: sweep | analyze | coordinated | jobs")
	seed := fs.Int64("seed", 1, "workload seed (job mix order, range offsets, random seeds)")
	seconds := fs.Int("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -seconds ≥ 1 and -trace 0|1\n")
		return 2
	}
	return execute(&env{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, cfg: full,
		golden: filepath.Join("perfbench", "golden", "full"),
		outDir: filepath.Join(".bench_build", "out"),
		log:    stderr,
	}, stdout)
}

// execute runs e's workload and prints its result
// line; it returns run's exit code.
func execute(e *env, stdout io.Writer) int {
	runner, ok := runners[e.workload]
	if !ok {
		e.logf("unknown workload %q (want one of %v)", e.workload, workloadNames())
		return 2
	}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		e.logf("%v", err)
		return 2
	}
	// The engines are sized by GOMAXPROCS; pin the collector to its
	// default so an inherited GOGC cannot skew alloc-heavy layers.
	debug.SetGCPercent(100)
	runtime.GC()

	res, err := runner(context.Background(), e)
	if err != nil {
		e.logf("%s: %v", e.workload, err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		e.logf("%v", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(runners))
	for n := range runners {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// duration is the measured time of one run.
func (e *env) duration() time.Duration { return time.Duration(e.seconds) * time.Second }

// readGolden loads one recorded golden output.
func (e *env) readGolden(name string) (string, error) {
	b, err := os.ReadFile(filepath.Join(e.golden, name))
	if err != nil {
		return "", fmt.Errorf("golden: %w", err)
	}
	return string(b), nil
}

// logf writes one diagnostic line to stderr.
func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, "perfbench: "+format+"\n", args...)
}
