package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	setconsensus "setconsensus"
	"setconsensus/internal/agg"
	"setconsensus/internal/cli"
	"setconsensus/internal/knowledge"
)

// runSweep times cli.SweepWorkload, one call per op, each call parsing
// the workload and building its engine afresh as a CLI invocation does.
func runSweep(ctx context.Context, e *env) (*result, error) {
	cfg := e.cfg
	golden, err := e.readGolden("sweep.txt")
	if err != nil {
		return nil, err
	}
	if e.trace {
		return traceSweep(ctx, e, golden)
	}
	su := &setupSampler{batch: setupBatch, setup: func() (func() error, error) {
		src, err := setconsensus.ParseWorkload(cfg.sweepRef)
		if err != nil {
			return nil, err
		}
		_, err = cliEngine(cfg).NewAggregator(src.Label(), cfg.refs)
		return nil, err
	}}
	var buf bytes.Buffer
	l := timeCalls(ctx, e, e.duration(), 1, su.group, func(ctx context.Context, _ int) (outcome, error) {
		buf.Reset()
		sum, err := cli.SweepWorkload(ctx, &buf, cfg.sweepRef, cfg.refs, setconsensus.Oracle, cfg.k, -1)
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

// traceSweep is the sweep workload's traced run:
//
//  1. the end-to-end sweep on the CLI's engine, for CPU per adversary and
//     the Engine.Stats() delta;
//  2. the stage-by-stage replay with clocks, whose Summary must equal
//     the end-to-end one, for the layer self times;
//  3. the same replay without clocks, for the tracing overhead;
//  4. isolated passes for Builder.Build and the graph allocations.
func traceSweep(ctx context.Context, e *env, golden string) (*result, error) {
	cfg := e.cfg
	tr := newTracer(e)
	m := newMetrics(perLayerUnits)
	ck := &checks{e: e}
	src, err := setconsensus.ParseWorkload(cfg.sweepRef)
	if err != nil {
		return nil, err
	}
	pb, ok := src.(setconsensus.PatternBlocked)
	if !ok {
		return nil, fmt.Errorf("sweep workload %q has no pattern blocks", cfg.sweepRef)
	}
	root := tr.begin(0, "run")

	// 1. End to end.
	s := tr.begin(root.ID, "stage:end-to-end")
	eng := cliEngine(cfg)
	u := readUsage()
	sum, err := eng.SweepSource(ctx, cfg.refs, src)
	if err != nil {
		return nil, err
	}
	_, cpu, _ := u.since()
	tr.finish(s, nil)
	ck.expect(table(sum) == golden, "end-to-end table differs from the golden")
	advs := sum.Adversaries()
	engineStats(m, eng.Stats(), advs)

	// 2. Traced replay.
	rp, err := newReplayer(cfg, tr, true)
	if err != nil {
		return nil, err
	}
	s = tr.begin(root.ID, "stage:replay")
	n, _, err := rp.walk(src.Seq(), s, pb.PatternBlock())
	if err != nil {
		return nil, err
	}
	rsum := rp.summary(src.Label())
	t0 := tr.now()
	merged := agg.New(src.Label(), cfg.refs)
	if err := merged.Merge(rsum); err != nil {
		return nil, err
	}
	mergeNs := tr.now() - t0
	rp.lt[lFold] += mergeNs
	tr.finish(s, &rp.lt)
	tracedWall := time.Duration(s.End - s.Start)
	ck.expect(n == advs && table(merged) == table(sum), "replay Summary differs from the end-to-end Summary")
	set(m, "fold.merge_us", float64(mergeNs)/1e3)

	// 3. Untraced replay.
	plain, err := newReplayer(cfg, tr, false)
	if err != nil {
		return nil, err
	}
	s = tr.begin(root.ID, "stage:replay-untraced")
	if _, _, err := plain.walk(src.Seq(), nil, 0); err != nil {
		return nil, err
	}
	tr.finish(s, nil)
	set(m, "trace.overhead_frac", float64(tracedWall)/float64(s.End-s.Start)-1)

	// 4. Isolated knowledge passes.
	if err := knowledgePasses(tr, root, m, src, rp); err != nil {
		return nil, err
	}

	replayMetrics(m, rp, n)
	cpuPerAdv := us(cpu) / float64(advs)
	residual := printLayerTable(e, "adversary", "engine orchestration (chunks, channels, pools, fingerprint + graph cache)", cpuPerAdv, replayRows(rp, n))
	set(m, "engine.residual_ns_per_adv", residual*1e3)
	set(m, "table.cpu_us_per_op", cpuPerAdv)
	set(m, "table.residual_us_per_op", residual)
	tr.finish(root, nil)
	return tracedResult(e, tr, m, ck.attempted, ck.failed)
}

// knowledgePasses times Builder.Build over the source (the daemon's and
// the compile stage's graph path) and measures the heap bytes per
// knowledge.New graph as the difference of an enumerate-only pass and
// an enumerate-and-build pass.
func knowledgePasses(tr *tracer, root *span, m map[string]metric, src setconsensus.Source, rp *replayer) error {
	s := tr.begin(root.ID, "stage:builder")
	b := knowledge.NewBuilder()
	var buildNs int64
	n := 0
	for adv := range src.Seq() {
		ps, err := rp.protosFor(adv)
		if err != nil {
			return err
		}
		t0 := tr.now()
		g := b.Build(adv, ps.horizon)
		g.Release()
		buildNs += tr.now() - t0
		n++
	}
	tr.finish(s, &layerTimes{lKnowledge: buildNs})
	builderCounts(m, b, n)
	set(m, "knowledge.build_ns_per_graph", perRun(buildNs, n))

	s = tr.begin(root.ID, "stage:graph-allocs")
	a0 := heapAllocs()
	for range src.Seq() {
	}
	a1 := heapAllocs()
	for adv := range src.Seq() {
		ps, err := rp.protosFor(adv)
		if err != nil {
			return err
		}
		_ = knowledge.New(adv, ps.horizon)
	}
	a2 := heapAllocs()
	tr.finish(s, nil)
	set(m, "knowledge.alloc_bytes_per_graph", frac(float64((a2-a1)-(a1-a0)), float64(n)))
	return nil
}

// builderCounts reports the Builder's built/revived/patched split.
func builderCounts(m map[string]metric, b *knowledge.Builder, n int) {
	built, revived, patched := b.TakeCounts()
	set(m, "knowledge.built_frac", frac(float64(built), float64(n)))
	set(m, "knowledge.revived_frac", frac(float64(revived), float64(n)))
	set(m, "knowledge.patched_frac", frac(float64(patched), float64(n)))
}

// engineStats reports the Engine.Stats() counters of an end-to-end run.
func engineStats(m map[string]metric, st setconsensus.EngineStats, advs int) {
	per1k := func(v int64) float64 { return frac(float64(v)*1000, float64(advs)) }
	set(m, "engine.graphs_rebuilt", per1k(st.GraphsRebuilt))
	set(m, "engine.graphs_revived", per1k(st.GraphsRevived))
	set(m, "engine.graphs_patched", per1k(st.GraphsPatched))
	set(m, "engine.kit_hit_ratio", frac(float64(st.RunKitHits), float64(st.RunKitHits+st.RunKitMisses)))
	set(m, "engine.chunk_hit_ratio", frac(float64(st.ChunkHits), float64(st.ChunkHits+st.ChunkMisses)))
}

// replayMetrics reports the replay's per-layer self times.
func replayMetrics(m map[string]metric, rp *replayer, advs int) {
	runs := advs * len(rp.refs)
	set(m, "enum.ns_per_adv", perRun(rp.lt[lEnum], advs))
	set(m, "knowledge.new_ns_per_graph", perRun(rp.lt[lKnowledge], advs))
	for i, ref := range rp.refs {
		name := "decide." + ref + "_ns_per_run"
		if _, ok := m[name]; ok {
			set(m, name, perRun(rp.lt[lDecide0+i], advs))
		}
	}
	set(m, "verify.ns_per_run", perRun(rp.lt[lVerify], runs))
	set(m, "verify.violations", float64(rp.violations))
	set(m, "fold.ns_per_run", perRun(rp.lt[lFold], runs))
}

// replayRows is the layer table of a sweep replay, in µs per adversary.
func replayRows(rp *replayer, advs int) []layerRow {
	row := func(name string, l int) layerRow { return layerRow{name, perRun(rp.lt[l], advs) / 1e3} }
	rows := []layerRow{row("enum", lEnum), row("knowledge.New", lKnowledge)}
	for i, ref := range rp.refs {
		rows = append(rows, row(fmt.Sprintf("decide.%s", ref), lDecide0+i))
	}
	return append(rows, row("verify", lVerify), row("fold", lFold))
}
