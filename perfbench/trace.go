package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Layers timed by the traced runs, named after the modules whose public
// functions the benchmark calls.
const (
	lEnum      = iota // enum: Space.From / Range iteration
	lKnowledge        // knowledge: New or Builder.Build
	lDecide0          // decide: sim.RunWithGraphInto, first protocol ref
	lDecide1          // decide: sim.RunWithGraphInto, second protocol ref
	lVerify           // check: Scratch.VerifyRun
	lFold             // agg: Acc.Observe and Summary.Merge
	lUnbeatAdd        // unbeat: Compiler.Add
	numLayers
)

var layerNames = [numLayers]string{"enum", "knowledge", "decide.0", "decide.1", "verify", "fold", "unbeat.add"}

// layerTimes accumulates per-layer self time in nanoseconds.
type layerTimes [numLayers]int64

func (a *layerTimes) sub(b *layerTimes) layerTimes {
	var d layerTimes
	for i := range a {
		d[i] = a[i] - b[i]
	}
	return d
}

// span is one traced interval. Spans of one run share Trace; a span's
// Self holds the per-layer time accumulated inside it, Attrs what it
// worked on.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"`
	Trace  string           `json:"trace"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Self   map[string]int64 `json:"self_ns,omitempty"`
	Attrs  map[string]any   `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	id    string
	t0    time.Time
	spans []*span
}

func newTracer(e *env) *tracer {
	return &tracer{id: fmt.Sprintf("%s-seed%d", e.workload, e.seed), t0: time.Now()}
}

// now is the tracer's clock: nanoseconds since the run began.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under parent (0 for a root).
func (t *tracer) begin(parent int, name string) *span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &span{ID: len(t.spans) + 1, Parent: parent, Trace: t.id, Name: name, Start: t.now()}
	t.spans = append(t.spans, s)
	return s
}

// finish closes s, attaching per-layer self times (nil for none).
func (t *tracer) finish(s *span, self *layerTimes) {
	s.End = t.now()
	if self != nil {
		s.Self = make(map[string]int64)
		for i, v := range self {
			if v != 0 {
				s.Self[layerNames[i]] = v
			}
		}
	}
}

// write dumps every span as one JSON line to dir/<trace>.spans.jsonl.
func (t *tracer) write(dir string) (string, error) {
	path := filepath.Join(dir, t.id+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// checks counts the output checks of a traced run.
type checks struct {
	e                 *env
	attempted, failed int
}

func (c *checks) expect(ok bool, what string) {
	c.attempted++
	if !ok {
		c.failed++
		c.e.logf("check failed: %s", what)
	}
}

// layerRow is one row of a workload's layer table: a layer's self time
// per op, in microseconds.
type layerRow struct {
	layer string
	usOp  float64
}

// printLayerTable prints the rows, the named residual that makes them
// add up to the end-to-end CPU per op, and the total, and returns the
// residual.
func printLayerTable(e *env, opName, residualName string, cpuPerOp float64, rows []layerRow) float64 {
	sum := 0.0
	for _, r := range rows {
		sum += r.usOp
	}
	residual := cpuPerOp - sum
	fmt.Fprintf(e.log, "layer table — %s (µs of CPU per %s)\n", e.workload, opName)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].usOp > rows[j].usOp })
	for _, r := range rows {
		fmt.Fprintf(e.log, "  %-36s %12.3f %6.1f%%\n", r.layer, r.usOp, 100*r.usOp/cpuPerOp)
	}
	fmt.Fprintf(e.log, "  %-36s %12.3f %6.1f%%  (%s)\n", "residual", residual, 100*residual/cpuPerOp, residualName)
	fmt.Fprintf(e.log, "  %-36s %12.3f\n", "end-to-end cpu", cpuPerOp)
	return residual
}

// tracedResult finishes a traced run: it writes the spans, prints the metrics
// and wraps them in the result line.
func tracedResult(e *env, tr *tracer, m map[string]metric, attempted, failed int) (*result, error) {
	path, err := tr.write(e.outDir)
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	e.logf("%d spans written to %s", len(tr.spans), path)
	printMetrics(e, m)
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}
