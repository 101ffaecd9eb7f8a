package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	setconsensus "setconsensus"
	"setconsensus/internal/service"
)

// jobsClients is the closed loop's client count: the daemon's callers
// (coordinator remote workers, setconsensus -server) each wait for their
// reply before sending the next job.
const jobsClients = 2

// mixBlocks is the number of 16-job blocks in the seeded sequence the
// clients walk (and wrap around).
const mixBlocks = 256

// rangeStrata is the number of range windows in the pool: one drawn from
// each of as many equal strata of the space, so every seed's windows
// spread over the whole space and the mean seek cost barely varies
// between seeds.
const rangeStrata = 32

// jobBlock is the mix of every 16 consecutive jobs, by kind.
var jobBlock = map[string]int{"range": 8, "random": 4, "collapse": 2, "search": 2}

// jobGoldenSeeds are the seeds every pool job of which has a recorded
// golden in jobs.json: the default seed and the held-out one. The
// collapse and search jobs do not depend on the seed, so their recorded
// goldens serve every seed.
var jobGoldenSeeds = []int64{1, 7}

// poolJob is one distinct job of the mix, with its golden.
type poolJob struct {
	kind   string
	req    service.JobRequest
	golden []byte        // JSON of the expected Summary or AnalysisReport
	advs   int           // adversaries the job sweeps or compiles
	cpu    time.Duration // CPU of the job on a local engine set up as the daemon's
}

// jobMix is the seeded pool of distinct jobs and the order the clients
// submit them in.
type jobMix struct {
	pool []*poolJob
	seq  []int
	next atomic.Int64
}

// newJobMix draws the pool and the sequence from the seed: range-window
// offsets, random-workload seeds and the submission order all derive
// from it. Every block of 16 jobs holds exactly the kinds of jobBlock,
// in a seeded order; within a kind the pool is cycled in a seeded order.
func newJobMix(cfg config, seed int64) *jobMix {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x9e3779b97f4a7c15))
	params := service.JobParams{Backend: setconsensus.Oracle.String(), K: cfg.k}
	sweep := func(workload string) service.JobRequest {
		return service.JobRequest{Kind: service.KindSweep, Refs: cfg.refs, Workload: workload, Params: params}
	}
	mix := &jobMix{}
	byKind := map[string][]int{}
	add := func(kind string, req service.JobRequest) {
		byKind[kind] = append(byKind[kind], len(mix.pool))
		mix.pool = append(mix.pool, &poolJob{kind: kind, req: req})
	}
	windows := (cfg.jobsSpaceSize + cfg.jobsRangeSize - 1) / cfg.jobsRangeSize
	strata := min(rangeStrata, windows)
	for i := 0; i < strata; i++ {
		lo, hi := i*windows/strata, (i+1)*windows/strata
		req := sweep(cfg.jobsSpaceRef)
		req.Offset, req.Limit = (lo+rng.IntN(hi-lo))*cfg.jobsRangeSize, cfg.jobsRangeSize
		add("range", req)
	}
	for i := 0; i < 4; i++ {
		add("random", sweep(fmt.Sprintf(cfg.jobsRandomFmt, seed*1000+int64(i))))
	}
	add("collapse", sweep(cfg.jobsCollapse))
	for _, ref := range cfg.jobsSearches {
		add("search", service.JobRequest{Kind: service.KindAnalysis, Analysis: ref, Params: params})
	}
	var block []string
	for _, kind := range []string{"range", "random", "collapse", "search"} {
		for i := 0; i < jobBlock[kind]; i++ {
			block = append(block, kind)
		}
		idxs := byKind[kind]
		rng.Shuffle(len(idxs), func(i, j int) { idxs[i], idxs[j] = idxs[j], idxs[i] })
	}
	cursor := map[string]int{}
	for b := 0; b < mixBlocks; b++ {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, kind := range block {
			idxs := byKind[kind]
			mix.seq = append(mix.seq, idxs[cursor[kind]%len(idxs)])
			cursor[kind]++
		}
	}
	return mix
}

// take returns the next job of the sequence.
func (m *jobMix) take() *poolJob {
	i := m.next.Add(1) - 1
	return m.pool[m.seq[int(i)%len(m.seq)]]
}

// key names a job in jobs.json.
func (j *poolJob) key() string {
	switch {
	case j.req.Kind == service.KindAnalysis:
		return j.req.Analysis
	case j.req.Limit > 0:
		return fmt.Sprintf("%s@%d+%d", j.req.Workload, j.req.Offset, j.req.Limit)
	}
	return j.req.Workload
}

// prepare gives every distinct job its golden, its adversary count and
// its engine CPU. The CPU and count come from a run on a local engine
// set up as the daemon sets up its per-job engines. The golden is the
// recorded one where jobs.json has it; otherwise — range windows and
// random sweeps of a seed outside jobGoldenSeeds — it is the same
// request swept by a local engine set up as the CLI sets up its own
// (graph cache on), which builds graphs through knowledge.New rather
// than the daemon's Builder path.
func (m *jobMix) prepare(ctx context.Context, e *env) error {
	var recorded map[string]json.RawMessage
	b, err := os.ReadFile(filepath.Join(e.golden, "jobs.json"))
	if err != nil {
		return fmt.Errorf("golden: %w", err)
	}
	if err := json.Unmarshal(b, &recorded); err != nil {
		return fmt.Errorf("golden jobs.json: %w", err)
	}
	local := 0
	for _, j := range m.pool {
		u := readUsage()
		if _, j.advs, err = runLocal(ctx, e.cfg, j.req, true); err != nil {
			return fmt.Errorf("local run of %s: %w", j.key(), err)
		}
		_, j.cpu, _ = u.since()
		if g, ok := recorded[j.key()]; ok {
			j.golden = g
			continue
		}
		if slices.Contains(jobGoldenSeeds, e.seed) || j.req.Kind == service.KindAnalysis {
			return fmt.Errorf("golden jobs.json has no entry %q", j.key())
		}
		if j.golden, _, err = runLocal(ctx, e.cfg, j.req, false); err != nil {
			return fmt.Errorf("local run of %s: %w", j.key(), err)
		}
		local++
	}
	e.logf("%d distinct jobs: %d recorded goldens, %d computed locally", len(m.pool), len(m.pool)-local, local)
	return nil
}

// runLocal runs req on a local engine and returns the JSON of its
// Summary or AnalysisReport and its adversary count. A sweep runs on an
// engine set up as the daemon's per-job engines are when daemon is true
// (graph cache off), else as cli.SweepWorkload's (graph cache on).
func runLocal(ctx context.Context, cfg config, req service.JobRequest, daemon bool) ([]byte, int, error) {
	if req.Kind == service.KindAnalysis {
		rep, err := setconsensus.New(setconsensus.WithDegree(cfg.k)).Analyze(ctx, req.Analysis)
		if err != nil {
			return nil, 0, err
		}
		b, err := json.Marshal(rep)
		return b, rep.Search.Runs, err
	}
	var eng *setconsensus.Engine
	if daemon {
		p := setconsensus.DefaultEngineParams()
		p.K, p.T, p.GraphCache = cfg.k, setconsensus.PatternCrashBound, 0
		var err error
		if eng, err = setconsensus.NewEngine(p); err != nil {
			return nil, 0, err
		}
	} else {
		eng = cliEngine(cfg)
	}
	defer eng.Close()
	src, err := setconsensus.ParseWorkload(req.Workload)
	if err != nil {
		return nil, 0, err
	}
	if req.Limit > 0 {
		src = setconsensus.RangeSource(src, req.Offset, req.Limit)
	}
	sum, err := eng.SweepSource(ctx, req.Refs, src)
	if err != nil {
		return nil, 0, err
	}
	b, err := json.Marshal(sum)
	return b, sum.Adversaries(), err
}

// matches reports whether a finished job's result equals its golden.
func (j *poolJob) matches(st *service.JobStatus) bool {
	if st.State != service.StateDone {
		return false
	}
	var got any = st.Summary
	if j.req.Kind == service.KindAnalysis {
		got = st.Analysis
	}
	b, err := json.Marshal(got)
	return err == nil && bytes.Equal(b, j.golden)
}

// daemon is an in-process setconsensusd: a service.Server with default
// parameters on a 127.0.0.1 listener.
type daemon struct {
	srv  *service.Server
	hs   *http.Server
	url  string
	done chan error
}

// startDaemon starts a daemon and returns once /readyz answers 200.
func startDaemon() (*daemon, error) {
	srv, err := service.New(service.Default())
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	srv.Start()
	go func() { d.done <- d.hs.Serve(ln) }()
	hc := &http.Client{Transport: &http.Transport{}, Timeout: 5 * time.Second}
	defer hc.CloseIdleConnections()
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := hc.Get(d.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("daemon not ready after 10s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the server and its listener and waits for both.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	herr := d.hs.Shutdown(ctx)
	serr := d.srv.Shutdown(ctx)
	if err := <-d.done; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return errors.Join(herr, serr)
}

// runJobs times jobs submitted to an in-process daemon by a closed loop
// of two clients, each calling Client.SubmitAndWait.
func runJobs(ctx context.Context, e *env) (*result, error) {
	cfg := e.cfg
	mix := newJobMix(cfg, e.seed)
	if err := mix.prepare(ctx, e); err != nil {
		return nil, err
	}
	if e.trace {
		return traceJobs(ctx, e, mix)
	}
	su := &setupSampler{batch: 1, setup: func() (func() error, error) {
		d, err := startDaemon()
		if err != nil {
			return nil, err
		}
		return d.stop, nil
	}}
	for i := 0; i < setupGroups; i++ {
		su.group()
	}
	setup, err := su.median()
	if err != nil {
		return nil, err
	}
	d, err := startDaemon()
	if err != nil {
		return nil, err
	}
	clients := newClients(d.url)
	l := timeCalls(ctx, e, e.duration(), jobsClients, nil, func(ctx context.Context, c int) (outcome, error) {
		j := mix.take()
		st, err := clients[c].SubmitAndWait(ctx, j.req, nil)
		if err != nil {
			return outcome{}, err
		}
		return outcome{advs: j.advs, ok: j.matches(st)}, nil
	})
	if err := d.stop(); err != nil {
		return nil, err
	}
	return endToEnd(e, setup, l, false), nil
}

// newClients makes the loop's clients. They do not retry: a default
// client re-sends a refused (429/503) or failed request up to twice, so a
// refusal would read as latency; here every refusal fails its job.
func newClients(url string) []*service.Client {
	cs := make([]*service.Client, jobsClients)
	for i := range cs {
		cs[i] = &service.Client{Base: url, Retries: -1}
	}
	return cs
}

// jobTiming is one traced job's breakdown.
type jobTiming struct {
	submit, queue, run, notify, latency time.Duration
}

// traceJobs is the jobs workload's traced run: half the time an untraced
// closed loop, half a traced one that calls Submit and Wait separately
// and reads the job's own timestamps, one span per job.
func traceJobs(ctx context.Context, e *env, mix *jobMix) (*result, error) {
	tr := newTracer(e)
	m := newMetrics(perLayerUnits)
	root := tr.begin(0, "run")
	d, err := startDaemon()
	if err != nil {
		return nil, err
	}
	half := max(e.duration()/2, time.Second)

	s := tr.begin(root.ID, "stage:untraced")
	clients := newClients(d.url)
	plain := timeCalls(ctx, e, half, jobsClients, nil, func(ctx context.Context, c int) (outcome, error) {
		j := mix.take()
		st, err := clients[c].SubmitAndWait(ctx, j.req, nil)
		if err != nil {
			return outcome{}, err
		}
		return outcome{advs: j.advs, ok: j.matches(st)}, nil
	})
	tr.finish(s, nil)

	s = tr.begin(root.ID, "stage:traced")
	plainClients := clients
	clients = newClients(d.url)
	var mu sync.Mutex
	var timings []jobTiming
	var engineCPU time.Duration
	refused := 0
	traced := timeCalls(ctx, e, half, jobsClients, nil, func(ctx context.Context, c int) (outcome, error) {
		j := mix.take()
		js := tr.begin(s.ID, "job")
		js.Attrs = map[string]any{"kind": j.kind, "client": c}
		defer tr.finish(js, nil)
		t0 := time.Now()
		st, err := clients[c].Submit(ctx, j.req)
		t1 := time.Now()
		if err == nil {
			st, err = clients[c].Wait(ctx, st.ID, nil)
		}
		t2 := time.Now()
		if err != nil {
			if service.IsOverload(err) {
				mu.Lock()
				refused++
				mu.Unlock()
			}
			return outcome{}, err
		}
		jt := jobTiming{submit: t1.Sub(t0), latency: t2.Sub(t0)}
		if st.Started != nil && st.Finished != nil {
			jt.queue, jt.run, jt.notify = st.Started.Sub(st.Created), st.Finished.Sub(*st.Started), t2.Sub(*st.Finished)
		}
		js.Attrs["id"], js.Attrs["submit_ns"], js.Attrs["queue_ns"], js.Attrs["run_ns"], js.Attrs["notify_ns"] =
			st.ID, jt.submit, jt.queue, jt.run, jt.notify
		mu.Lock()
		timings = append(timings, jt)
		engineCPU += j.cpu
		mu.Unlock()
		return outcome{advs: j.advs, ok: j.matches(st)}, nil
	})
	tr.finish(s, nil)
	if err := d.stop(); err != nil {
		return nil, err
	}

	pick := func(f func(jobTiming) time.Duration) []time.Duration {
		ds := make([]time.Duration, len(timings))
		for i, t := range timings {
			ds[i] = f(t)
		}
		return ds
	}
	var runSum, latSum time.Duration
	for _, t := range timings {
		runSum += t.run
		latSum += t.latency
	}
	set(m, "service.submit_ms", ms(quantile(pick(func(t jobTiming) time.Duration { return t.submit }), 0.5)))
	set(m, "service.queue_ms", ms(quantile(pick(func(t jobTiming) time.Duration { return t.queue }), 0.5)))
	set(m, "service.run_ms", ms(quantile(pick(func(t jobTiming) time.Duration { return t.run }), 0.5)))
	set(m, "service.notify_ms", ms(quantile(pick(func(t jobTiming) time.Duration { return t.notify }), 0.5)))
	set(m, "service.overhead_frac", 1-frac(float64(runSum), float64(latSum)))
	set(m, "service.refused", float64(refused))
	var retries int64
	for _, c := range append(plainClients, clients...) {
		st := c.Stats()
		retries += st.HTTPRetries + st.SSEReconnects
	}
	set(m, "service.client_retries", float64(retries))
	set(m, "trace.overhead_frac", 1-frac(float64(traced.calls)/traced.wall.Seconds(), float64(plain.calls)/plain.wall.Seconds()))

	jobs := float64(max(len(timings), 1))
	cpuPerJob := us(traced.cpu) / float64(traced.calls)
	residual := printLayerTable(e, "job", "service: admission, HTTP, JSON, SSE, client", cpuPerJob, []layerRow{
		{"engine (per-job engine + run, local)", us(engineCPU) / jobs},
	})
	set(m, "table.cpu_us_per_op", cpuPerJob)
	set(m, "table.residual_us_per_op", residual)
	tr.finish(root, nil)
	failed := plain.failed + traced.failed
	return tracedResult(e, tr, m, plain.calls+traced.calls, failed)
}
