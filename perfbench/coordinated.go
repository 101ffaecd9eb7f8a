package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	setconsensus "setconsensus"
	"setconsensus/internal/agg"
	"setconsensus/internal/cli"
	"setconsensus/internal/coord"
)

// runCoordinated times cli.CoordinateWorkload with in-process workers and
// a checkpoint file in a fresh directory per call, so no call resumes.
func runCoordinated(ctx context.Context, e *env) (*result, error) {
	cfg := e.cfg
	golden, err := e.readGolden("coordinated.txt")
	if err != nil {
		return nil, err
	}
	if e.trace {
		return traceCoordinated(ctx, e, golden)
	}
	dir, err := os.MkdirTemp(e.outDir, "setup")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	su := &setupSampler{batch: setupBatch, setup: func() (func() error, error) {
		_, _, _, err := newCoordinator(cfg, filepath.Join(dir, "sweep.ckpt"))
		return nil, err
	}}
	var buf bytes.Buffer
	l := timeCalls(ctx, e, e.duration(), 1, su.group, func(ctx context.Context, _ int) (outcome, error) {
		buf.Reset()
		dir, err := os.MkdirTemp(e.outDir, "ckpt")
		if err != nil {
			return outcome{}, err
		}
		defer os.RemoveAll(dir)
		sum, err := cli.CoordinateWorkload(ctx, &buf, cfg.coordRef, cfg.refs, setconsensus.Oracle, cfg.k, -1,
			cli.CoordinateOpts{Workers: cfg.coordWorkers, Checkpoint: filepath.Join(dir, "sweep.ckpt")})
		if err != nil {
			return outcome{}, err
		}
		return outcome{advs: sum.Adversaries(), ok: buf.String() == golden}, nil
	})
	setup, err := su.median()
	if err != nil {
		return nil, err
	}
	return endToEnd(e, setup, l, true), nil
}

// newCoordinator builds what cli.CoordinateWorkload builds: a coordinator
// with default parameters over the workload and one CLI engine per
// in-process worker. It returns the engines too, for their Stats.
func newCoordinator(cfg config, checkpoint string) (*coord.Coordinator, []*coord.EngineWorker, []*setconsensus.Engine, error) {
	src, err := setconsensus.ParseWorkload(cfg.coordRef)
	if err != nil {
		return nil, nil, nil, err
	}
	p := coord.Default()
	p.CheckpointPath = checkpoint
	c, err := coord.New(src.Label(), cfg.refs, p)
	if err != nil {
		return nil, nil, nil, err
	}
	var workers []*coord.EngineWorker
	var engines []*setconsensus.Engine
	for i := 0; i < cfg.coordWorkers; i++ {
		eng := cliEngine(cfg)
		engines = append(engines, eng)
		workers = append(workers, coord.NewEngineWorker(fmt.Sprintf("local-%d", i), eng, cfg.refs, src, 0))
	}
	return c, workers, engines, nil
}

// timedWorker decorates a coord.Worker with one span per range.
type timedWorker struct {
	coord.Worker
	tr     *tracer
	parent int

	mu   sync.Mutex
	busy []time.Duration
}

func (w *timedWorker) Sweep(ctx context.Context, r coord.Range, progress func(setconsensus.SweepProgress)) (*setconsensus.Summary, error) {
	s := w.tr.begin(w.parent, "range")
	sum, err := w.Worker.Sweep(ctx, r, progress)
	w.tr.finish(s, nil)
	s.Attrs = map[string]any{"worker": w.Name(), "offset": r.Offset, "limit": r.Limit}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.busy = append(w.busy, time.Duration(s.End-s.Start))
	return sum, err
}

// coordPass is one coordinated sweep run through decorated workers.
type coordPass struct {
	sum       *setconsensus.Summary
	wall, cpu time.Duration
	stats     coord.Stats
	engines   setconsensus.EngineStats
	workers   []*timedWorker
}

func runCoordPass(ctx context.Context, cfg config, tr *tracer, parent *span, checkpoint string) (*coordPass, error) {
	c, ews, engines, err := newCoordinator(cfg, checkpoint)
	if err != nil {
		return nil, err
	}
	pass := &coordPass{}
	var workers []coord.Worker
	for _, w := range ews {
		tw := &timedWorker{Worker: w, tr: tr, parent: parent.ID}
		pass.workers = append(pass.workers, tw)
		workers = append(workers, tw)
	}
	u := readUsage()
	pass.sum, err = c.Run(ctx, workers, nil)
	if err != nil {
		return nil, err
	}
	pass.wall, pass.cpu, _ = u.since()
	pass.stats = c.Stats()
	for _, eng := range engines {
		es := eng.Stats()
		pass.engines.GraphsRebuilt += es.GraphsRebuilt
		pass.engines.GraphsRevived += es.GraphsRevived
		pass.engines.GraphsPatched += es.GraphsPatched
		pass.engines.RunKitHits += es.RunKitHits
		pass.engines.RunKitMisses += es.RunKitMisses
		pass.engines.ChunkHits += es.ChunkHits
		pass.engines.ChunkMisses += es.ChunkMisses
	}
	return pass, nil
}

// traceCoordinated is the coordinated workload's traced run: one
// untraced call, a pass through range-timing workers with a checkpoint
// and one without, and a range-by-range replay whose merged Summary must
// equal the end-to-end one.
func traceCoordinated(ctx context.Context, e *env, golden string) (*result, error) {
	cfg := e.cfg
	tr := newTracer(e)
	m := newMetrics(perLayerUnits)
	ck := &checks{e: e}
	src, err := setconsensus.ParseWorkload(cfg.coordRef)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.outDir, "ckpt")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	root := tr.begin(0, "run")

	// Untraced end to end, for the tracing overhead.
	s := tr.begin(root.ID, "stage:end-to-end-untraced")
	var buf bytes.Buffer
	if _, err := cli.CoordinateWorkload(ctx, &buf, cfg.coordRef, cfg.refs, setconsensus.Oracle, cfg.k, -1,
		cli.CoordinateOpts{Workers: cfg.coordWorkers, Checkpoint: filepath.Join(dir, "untraced.ckpt")}); err != nil {
		return nil, err
	}
	tr.finish(s, nil)
	untraced := time.Duration(s.End - s.Start)
	ck.expect(buf.String() == golden, "untraced table differs from the golden")

	// Decorated passes, with and without the checkpoint.
	s = tr.begin(root.ID, "stage:end-to-end")
	ckpt := filepath.Join(dir, "traced.ckpt")
	with, err := runCoordPass(ctx, cfg, tr, s, ckpt)
	if err != nil {
		return nil, err
	}
	tr.finish(s, nil)
	ck.expect(table(with.sum) == golden, "traced table differs from the golden")
	fi, err := os.Stat(ckpt)
	if err != nil {
		return nil, err
	}
	s = tr.begin(root.ID, "stage:end-to-end-no-checkpoint")
	without, err := runCoordPass(ctx, cfg, tr, s, "")
	if err != nil {
		return nil, err
	}
	tr.finish(s, nil)
	ck.expect(table(without.sum) == golden, "checkpoint-free table differs from the golden")

	advs := with.sum.Adversaries()
	var busy []time.Duration
	for _, w := range with.workers {
		busy = append(busy, w.busy...)
	}
	engineStats(m, with.engines, advs)
	var busySum time.Duration
	for _, d := range busy {
		busySum += d
	}
	set(m, "coord.range_ms_p50", ms(quantile(busy, 0.5)))
	set(m, "coord.busy_frac", frac(float64(busySum), float64(len(with.workers))*float64(with.wall)))
	set(m, "coord.ckpt_frac", 1-float64(without.wall)/float64(with.wall))
	set(m, "coord.ckpt_bytes", float64(fi.Size()))
	set(m, "coord.retries", float64(with.stats.RangeRetries))
	set(m, "coord.lease_expiries", float64(with.stats.LeaseExpiries))
	set(m, "trace.overhead_frac", float64(with.wall)/float64(untraced)-1)

	// Range-by-range replay: each range seeks from offset 0 through
	// RangeSource (Space.Range underneath), as the engine workers do, and merges into the
	// running Summary in offset order, as the coordinator does.
	rp, err := newReplayer(cfg, tr, true)
	if err != nil {
		return nil, err
	}
	s = tr.begin(root.ID, "stage:replay")
	label := with.sum.Workload
	merged := agg.New(label, cfg.refs)
	size := coord.Default().RangeSize
	var seeks []time.Duration
	var mergeNs int64
	merges := 0
	for off := 0; ; off += size {
		rs := tr.begin(s.ID, "range")
		start := rp.lt
		n, seek, err := rp.walk(setconsensus.RangeSource(src, off, size).Seq(), nil, 0)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			tr.finish(rs, nil)
			break
		}
		part := rp.summary(label)
		t0 := tr.now()
		if err := merged.Merge(part); err != nil {
			return nil, err
		}
		d := tr.now() - t0
		rp.lt[lFold] += d
		mergeNs += d
		merges++
		seeks = append(seeks, time.Duration(seek))
		delta := rp.lt.sub(&start)
		tr.finish(rs, &delta)
		rs.Attrs = map[string]any{"offset": off, "advs": n, "seek_ns": seek}
	}
	tr.finish(s, &rp.lt)
	ck.expect(table(merged) == table(with.sum), "range replay Summary differs from the end-to-end Summary")
	set(m, "enum.seek_us_p50", us(quantile(seeks, 0.5)))
	set(m, "enum.seek_us_max", us(quantile(seeks, 1)))
	set(m, "fold.merge_us", perRun(mergeNs, merges)/1e3)
	replayMetrics(m, rp, advs)

	cpuPerAdv := us(with.cpu) / float64(advs)
	rows := append(replayRows(rp, advs),
		layerRow{"coord.checkpoint", us(with.cpu-without.cpu) / float64(advs)})
	residual := printLayerTable(e, "adversary", "engine and coordinator orchestration (chunks, pools, graph cache, leases, merges)", cpuPerAdv, rows)
	set(m, "engine.residual_ns_per_adv", residual*1e3)
	set(m, "table.cpu_us_per_op", cpuPerAdv)
	set(m, "table.residual_us_per_op", residual)
	tr.finish(root, nil)
	return tracedResult(e, tr, m, ck.attempted, ck.failed)
}
