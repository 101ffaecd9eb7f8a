package main

import (
	"context"
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// endToEndUnits declares every end-to-end metric a -trace 0 run prints,
// with its unit. BENCHMARK.json declares the same set (the self-check
// holds the two together).
var endToEndUnits = map[string]string{
	"setup_s":            "s",
	"adv_per_s":          "1/s",
	"calls_per_s":        "1/s",
	"call_p50_ms":        "ms",
	"call_tail_ms":       "ms",
	"cpu_us_per_op":      "us",
	"alloc_bytes_per_op": "bytes",
}

// perLayerUnits declares every per-layer metric a -trace 1 run prints.
// A layer a workload leaves idle reports 0.
var perLayerUnits = map[string]string{
	"enum.ns_per_adv":                 "ns",
	"enum.seek_us_p50":                "us",
	"enum.seek_us_max":                "us",
	"knowledge.new_ns_per_graph":      "ns",
	"knowledge.build_ns_per_graph":    "ns",
	"knowledge.built_frac":            "ratio",
	"knowledge.revived_frac":          "ratio",
	"knowledge.patched_frac":          "ratio",
	"knowledge.alloc_bytes_per_graph": "bytes",
	"engine.graphs_rebuilt":           "count/kadv",
	"engine.graphs_revived":           "count/kadv",
	"engine.graphs_patched":           "count/kadv",
	"engine.kit_hit_ratio":            "ratio",
	"engine.chunk_hit_ratio":          "ratio",
	"engine.residual_ns_per_adv":      "ns",
	"decide.optmin_ns_per_run":        "ns",
	"decide.upmin_ns_per_run":         "ns",
	"verify.ns_per_run":               "ns",
	"verify.violations":               "count",
	"fold.ns_per_run":                 "ns",
	"fold.merge_us":                   "us",
	"unbeat.compile_ms":               "ms",
	"unbeat.width1_ms":                "ms",
	"unbeat.width2_ms":                "ms",
	"unbeat.add_ns_per_run":           "ns",
	"unbeat.candidates":               "count",
	"unbeat.pairs_tested":             "count",
	"unbeat.prune_frac":               "ratio",
	"service.submit_ms":               "ms",
	"service.queue_ms":                "ms",
	"service.run_ms":                  "ms",
	"service.notify_ms":               "ms",
	"service.overhead_frac":           "ratio",
	"service.refused":                 "count",
	"service.client_retries":          "count",
	"coord.range_ms_p50":              "ms",
	"coord.busy_frac":                 "ratio",
	"coord.ckpt_frac":                 "ratio",
	"coord.ckpt_bytes":                "bytes",
	"coord.retries":                   "count",
	"coord.lease_expiries":            "count",
	"table.cpu_us_per_op":             "us",
	"table.residual_us_per_op":        "us",
	"trace.overhead_frac":             "ratio",
}

// newMetrics returns the declared set with every value 0.
func newMetrics(units map[string]string) map[string]metric {
	m := make(map[string]metric, len(units))
	for name, unit := range units {
		m[name] = metric{Unit: unit}
	}
	return m
}

// set records a declared metric; an undeclared name is a bug.
func set(m map[string]metric, name string, v float64) {
	old, ok := m[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	m[name] = metric{Value: v, Unit: old.Unit}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAllocs is the runtime's cumulative count of heap bytes allocated.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// usage is a point-in-time reading of wall clock, CPU and allocation.
type usage struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
}

func readUsage() usage { return usage{wall: time.Now(), cpu: cpuTime(), alloc: heapAllocs()} }

// since returns the wall time, CPU and heap bytes spent after u.
func (u usage) since() (wall, cpu time.Duration, alloc uint64) {
	now := readUsage()
	return now.wall.Sub(u.wall), now.cpu - u.cpu, now.alloc - u.alloc
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile returns the q-quantile (0 ≤ q ≤ 1) of ds by nearest rank.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(q*float64(len(s)))) - 1 // nearest rank is 1-based
	idx = max(0, min(idx, len(s)-1))
	return s[idx]
}

// tailCalls is the call count from which a run reports p99 as its tail:
// enough for ten samples beyond it. The jobs loop makes thousands of
// calls a run, the single-client workloads tens of long calls — too few
// for a tail, so they report the median. The percentile is fixed per
// workload rather than the highest the count allows, so that a faster
// commit, making more calls, is not measured at a higher percentile.
const tailCalls = 1000

// tail returns the run's tail call time, with a label naming it.
func tail(ds []time.Duration) (time.Duration, string) {
	if n := len(ds); n >= tailCalls {
		return quantile(ds, 0.99), fmt.Sprintf("p99 of %d", n)
	}
	return quantile(ds, 0.5), fmt.Sprintf("p50 of %d (too few calls for a tail)", len(ds))
}

// median returns the median of xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Set-up timing. setup_s is the median of group means: a group runs
// setupBatches batches of back-to-back set-ups with a pause after each,
// so it spans tens of milliseconds — long enough to average over the
// shifts in machine state that make microsecond set-ups jump between two
// speeds — and the median over groups discards the group a collection or
// a burst of interference lands in. Single-client workloads take one
// group before every timed call, so the groups sample the same stretch
// of time as the calls; the jobs workload takes setupGroups server
// start-ups before its loop.
const (
	setupGroups  = 5
	setupBatches = 10
	setupPause   = 5 * time.Millisecond
)

// setupSampler collects setup_s group means.
type setupSampler struct {
	batch int // set-ups per batch
	setup func() (teardown func() error, err error)
	means []time.Duration
	err   error
}

// group times one group; the teardowns run after the clock stops.
func (s *setupSampler) group() {
	if s.err != nil {
		return
	}
	var sum time.Duration
	for b := 0; b < setupBatches; b++ {
		for j := 0; j < s.batch; j++ {
			t0 := time.Now()
			teardown, err := s.setup()
			sum += time.Since(t0)
			if err == nil && teardown != nil {
				err = teardown()
			}
			if err != nil {
				s.err = fmt.Errorf("set-up: %w", err)
				return
			}
		}
		time.Sleep(setupPause)
	}
	s.means = append(s.means, sum/time.Duration(setupBatches*s.batch))
}

// median returns setup_s.
func (s *setupSampler) median() (time.Duration, error) {
	return quantile(s.means, 0.5), s.err
}

// outcome is what one entry-point call reports back to the timed loop.
type outcome struct {
	advs int  // adversaries the call covered
	ok   bool // the output matched its golden
}

// window is one slice of a timed loop: a single call when one client
// drives the loop, a fixed tick of the clock when several do.
type window struct {
	dur         time.Duration
	calls, advs int
	cpu         time.Duration
	alloc       uint64
}

// windowTick is the window length of multi-client loops.
const windowTick = 500 * time.Millisecond

// loop is the record of one closed-loop measurement.
type loop struct {
	calls, failed, advs int
	durs                []time.Duration
	windows             []window
	wall                time.Duration
	cpu                 time.Duration
}

// timeCalls runs call back to back from each of clients goroutines until
// d has elapsed (every client makes at least one call) and records each
// call's wall time. With one client, between (if not nil) runs before
// each call, off the clock, and every call is a window of its own,
// with its own CPU and allocation reading; with several, a sampler cuts
// the loop into windowTick windows and counts the calls completed in
// each. An error or a failed output check counts the call as failed;
// the first few are logged.
func timeCalls(ctx context.Context, e *env, d time.Duration, clients int, between func(), call func(ctx context.Context, client int) (outcome, error)) *loop {
	l := &loop{}
	var mu sync.Mutex
	var cur window // the open window of a multi-client loop
	start := readUsage()
	deadline := start.wall.Add(d)
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	if clients > 1 {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			t := time.NewTicker(windowTick)
			defer t.Stop()
			last := start
			for {
				select {
				case <-stop:
					return
				case <-t.C:
				}
				now := readUsage()
				mu.Lock()
				cur.dur, cur.cpu, cur.alloc = now.wall.Sub(last.wall), now.cpu-last.cpu, now.alloc-last.alloc
				l.windows = append(l.windows, cur)
				cur = window{}
				mu.Unlock()
				last = now
			}
		}()
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				var u usage
				if clients == 1 {
					if between != nil {
						between()
					}
					u = readUsage()
				}
				t0 := time.Now()
				out, err := call(ctx, c)
				dur := time.Since(t0)
				mu.Lock()
				if clients == 1 {
					w := window{calls: 1, advs: out.advs}
					w.dur, w.cpu, w.alloc = u.since()
					l.windows = append(l.windows, w)
				} else {
					cur.calls++
					cur.advs += out.advs
				}
				l.calls++
				l.durs = append(l.durs, dur)
				l.advs += out.advs
				if err != nil || !out.ok {
					l.failed++
					if l.failed <= 3 {
						if err != nil {
							e.logf("call failed: %v", err)
						} else {
							e.logf("call output differs from its golden")
						}
					}
				}
				mu.Unlock()
				if !time.Now().Before(deadline) {
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	sampler.Wait()
	l.wall, l.cpu, _ = start.since()
	return l
}

// endToEnd assembles the -trace 0 metrics. Rates and per-op costs are
// medians over the loop's windows, so a burst of interference from
// outside the process moves a few windows, not the figure. ops is the
// workload's unit of work for the per-op metrics: adversaries for sweep
// and coordinated, calls (analyses, jobs) otherwise.
func endToEnd(e *env, setup time.Duration, l *loop, opsAreAdvs bool) *result {
	m := newMetrics(endToEndUnits)
	var advRate, callRate, cpuOp, allocOp []float64
	for _, w := range l.windows {
		ops := w.calls
		if opsAreAdvs {
			ops = w.advs
		}
		if ops == 0 {
			continue // a window no call completed in
		}
		advRate = append(advRate, float64(w.advs)/w.dur.Seconds())
		callRate = append(callRate, float64(w.calls)/w.dur.Seconds())
		cpuOp = append(cpuOp, us(w.cpu)/float64(ops))
		allocOp = append(allocOp, float64(w.alloc)/float64(ops))
	}
	tl, tlLabel := tail(l.durs)
	set(m, "setup_s", setup.Seconds())
	set(m, "adv_per_s", median(advRate))
	set(m, "calls_per_s", median(callRate))
	set(m, "call_p50_ms", ms(quantile(l.durs, 0.5)))
	set(m, "call_tail_ms", ms(tl))
	set(m, "cpu_us_per_op", median(cpuOp))
	set(m, "alloc_bytes_per_op", median(allocOp))
	e.logf("%s: %d calls (%d failed, failed_frac %.4f), %d adversaries in %.2fs (%.0f%% CPU), %d windows; tail = %s",
		e.workload, l.calls, l.failed, float64(l.failed)/float64(l.calls), l.advs, l.wall.Seconds(),
		100*l.cpu.Seconds()/l.wall.Seconds(), len(advRate), tlLabel)
	e.logf("call ms: min %.2f p25 %.2f p50 %.2f p75 %.2f max %.2f", ms(quantile(l.durs, 0)), ms(quantile(l.durs, 0.25)),
		ms(quantile(l.durs, 0.5)), ms(quantile(l.durs, 0.75)), ms(quantile(l.durs, 1)))
	printMetrics(e, m)
	return &result{Correct: l.failed == 0, Attempted: l.calls, Failed: l.failed, Metrics: m}
}

// printMetrics lists metrics by name and unit on stderr.
func printMetrics(e *env, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(e.log, "  %-34s %16.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
