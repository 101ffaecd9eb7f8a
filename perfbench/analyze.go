package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"time"

	setconsensus "setconsensus"
	"setconsensus/internal/cli"
	"setconsensus/internal/enum"
	"setconsensus/internal/knowledge"
	"setconsensus/internal/sim"
	"setconsensus/internal/unbeat"
)

// runAnalyze times cli.RunAnalysis, one analysis per op, each building
// its engine afresh.
func runAnalyze(ctx context.Context, e *env) (*result, error) {
	cfg := e.cfg
	golden, err := e.readGolden("analyze.txt")
	if err != nil {
		return nil, err
	}
	if e.trace {
		return traceAnalyze(ctx, e, golden)
	}
	su := &setupSampler{batch: setupBatch, setup: func() (func() error, error) {
		if _, err := setconsensus.ParseAnalysis(cfg.analysisRef); err != nil {
			return nil, err
		}
		_ = analysisEngine(cfg)
		return nil, nil
	}}
	var buf bytes.Buffer
	l := timeCalls(ctx, e, e.duration(), 1, su.group, func(ctx context.Context, _ int) (outcome, error) {
		buf.Reset()
		rep, err := cli.RunAnalysis(ctx, &buf, cfg.analysisRef, setconsensus.Oracle, cfg.k)
		if err != nil {
			return outcome{}, err
		}
		return outcome{advs: rep.Search.Runs, ok: buf.String() == golden}, nil
	})
	setup, err := su.median()
	if err != nil {
		return nil, err
	}
	return endToEnd(e, setup, l, false), nil
}

// analysisEngine builds the engine cli.RunAnalysis builds.
func analysisEngine(cfg config) *setconsensus.Engine {
	return setconsensus.New(setconsensus.WithBackend(setconsensus.Oracle), setconsensus.WithDegree(cfg.k))
}

// searchSpec is a parsed "search:<base>:n=..,t=..[,r=..]" reference, with
// the registry's defaults filled in (r = t+1, v = 0..k, width 2, uniform
// for upmin).
type searchSpec struct {
	base   string
	params unbeat.SearchParams
}

func parseSearch(ref string, k int) (searchSpec, error) {
	rest, ok := strings.CutPrefix(ref, "search:")
	if !ok {
		return searchSpec{}, fmt.Errorf("not a search analysis: %q", ref)
	}
	base, args, _ := strings.Cut(rest, ":")
	kv, err := parseArgs(args)
	if err != nil {
		return searchSpec{}, err
	}
	n, t := kv.int("n"), kv.int("t")
	r := t + 1
	if _, ok := kv["r"]; ok {
		r = kv.int("r")
	}
	width := 2
	if _, ok := kv["width"]; ok {
		width = kv.int("width")
	}
	sp := enum.Space{N: n, T: t, MaxRound: r}
	for v := 0; v <= k; v++ {
		sp.Values = append(sp.Values, v)
	}
	return searchSpec{base: base, params: unbeat.SearchParams{
		Space: sp, K: k, T: t, Uniform: base == "upmin", Width: width,
	}}, nil
}

// stageMark is one stage change seen by the AnalyzeStream callback.
type stageMark struct {
	stage string
	at    time.Time
	cpu   time.Duration
}

// traceAnalyze is the analyze workload's traced run: one untraced call,
// one AnalyzeStream call whose progress callback marks the stage
// changes (wall and CPU), and a compile replay — enum → Builder.Build →
// sim.RunWithGraphInto → Compiler.Add — followed by a one-worker search
// whose report must equal the end-to-end one.
func traceAnalyze(ctx context.Context, e *env, golden string) (*result, error) {
	cfg := e.cfg
	tr := newTracer(e)
	m := newMetrics(perLayerUnits)
	ck := &checks{e: e}
	spec, err := parseSearch(cfg.analysisRef, cfg.k)
	if err != nil {
		return nil, err
	}
	root := tr.begin(0, "run")

	s := tr.begin(root.ID, "stage:end-to-end-untraced")
	var buf bytes.Buffer
	if _, err := cli.RunAnalysis(ctx, &buf, cfg.analysisRef, setconsensus.Oracle, cfg.k); err != nil {
		return nil, err
	}
	tr.finish(s, nil)
	untraced := time.Duration(s.End - s.Start)
	ck.expect(buf.String() == golden, "untraced output differs from the golden")

	// End to end with stage marks; the output is rebuilt as RunAnalysis
	// prints it.
	s = tr.begin(root.ID, "stage:end-to-end")
	eng := analysisEngine(cfg)
	var marks []stageMark
	var out strings.Builder
	u := readUsage()
	rep, err := eng.AnalyzeStream(ctx, cfg.analysisRef, func(p setconsensus.AnalysisProgress) {
		if len(marks) > 0 && marks[len(marks)-1].stage == p.Stage {
			return
		}
		marks = append(marks, stageMark{p.Stage, time.Now(), cpuTime()})
		fmt.Fprintf(&out, "stage %s...\n", p.Stage)
	})
	if err != nil {
		return nil, err
	}
	wall, cpu, _ := u.since()
	end := stageMark{"", time.Now(), cpuTime()}
	tr.finish(s, nil)
	fmt.Fprintln(&out, setconsensus.AnalysisTable(rep).Render())
	ck.expect(out.String() == golden, "traced output differs from the golden")
	set(m, "trace.overhead_frac", float64(wall)/float64(untraced)-1)
	stageWall := map[string]time.Duration{}
	stageCPU := map[string]time.Duration{}
	for i, mk := range marks {
		next := end
		if i+1 < len(marks) {
			next = marks[i+1]
		}
		stageWall[mk.stage] = next.at.Sub(mk.at)
		stageCPU[mk.stage] = next.cpu - mk.cpu
		st := tr.begin(s.ID, "stage:"+mk.stage)
		st.Start, st.End = int64(mk.at.Sub(tr.t0)), int64(next.at.Sub(tr.t0))
		st.Attrs = map[string]any{"cpu_ns": int64(next.cpu - mk.cpu)}
	}
	set(m, "unbeat.compile_ms", ms(stageWall["compile"]))
	set(m, "unbeat.width1_ms", ms(stageWall["width-1"]))
	set(m, "unbeat.width2_ms", ms(stageWall["width-2"]))
	sr := rep.Search
	set(m, "unbeat.candidates", float64(sr.Candidates))
	set(m, "unbeat.pairs_tested", float64(sr.PairsTested))
	set(m, "unbeat.prune_frac", frac(float64(sr.PairsPruned), float64(sr.PairsPruned+sr.PairsTested)))
	engineStats(m, eng.Stats(), sr.Runs)

	// Compile replay.
	lt, b, n, comp, err := replayCompile(tr, root, spec)
	if err != nil {
		return nil, err
	}
	s = tr.begin(root.ID, "stage:search-replay")
	srep, err := comp.Compiled().Search(ctx, unbeat.SearchOptions{Parallelism: 1})
	if err != nil {
		return nil, err
	}
	tr.finish(s, nil)
	same := srep.Runs == sr.Runs && srep.Views == sr.Views && srep.Candidates == sr.Candidates &&
		srep.PairsPruned == sr.PairsPruned && srep.PairsTested == sr.PairsTested && srep.Beaten == sr.Beaten
	ck.expect(n == sr.Runs && same, "replayed search report differs from the end-to-end report")

	set(m, "enum.ns_per_adv", perRun(lt[lEnum], n))
	set(m, "knowledge.build_ns_per_graph", perRun(lt[lKnowledge], n))
	builderCounts(m, b, n)
	set(m, "decide."+spec.base+"_ns_per_run", perRun(lt[lDecide0], n))
	set(m, "unbeat.add_ns_per_run", perRun(lt[lUnbeatAdd], n))

	cpuPerOp := us(cpu)
	rows := []layerRow{
		{"enum", float64(lt[lEnum]) / 1e3},
		{"knowledge.Builder.Build", float64(lt[lKnowledge]) / 1e3},
		{"decide." + spec.base, float64(lt[lDecide0]) / 1e3},
		{"unbeat.Compiler.Add", float64(lt[lUnbeatAdd]) / 1e3},
		{"unbeat.search (width-1, width-2)", us(stageCPU["width-1"] + stageCPU["width-2"])},
	}
	residual := printLayerTable(e, "analysis", "engine set-up, kit pool, progress sink, report", cpuPerOp, rows)
	set(m, "table.cpu_us_per_op", cpuPerOp)
	set(m, "table.residual_us_per_op", residual)
	tr.finish(root, nil)
	return tracedResult(e, tr, m, ck.attempted, ck.failed)
}

// replayCompile replays the compile stage of a search analysis on one
// goroutine, timing each layer, with one span per pattern block.
func replayCompile(tr *tracer, root *span, spec searchSpec) (layerTimes, *knowledge.Builder, int, *unbeat.Compiler, error) {
	var lt layerTimes
	comp, err := unbeat.NewCompiler(spec.params)
	if err != nil {
		return lt, nil, 0, nil, err
	}
	sp := spec.params.Space
	proto, err := setconsensus.NewProtocol(spec.base, setconsensus.Params{N: sp.N, T: spec.params.T, K: spec.params.K})
	if err != nil {
		return lt, nil, 0, nil, err
	}
	s := tr.begin(root.ID, "stage:compile-replay")
	b := knowledge.NewBuilder()
	var sc sim.Scratch
	var res sim.Result
	block := sp.PatternBlock()
	var cur *span
	var curStart layerTimes
	n := 0
	last := tr.now()
	for _, adv := range sp.From(0) {
		t0 := tr.now()
		lt[lEnum] += t0 - last
		if n%block == 0 {
			if cur != nil {
				d := lt.sub(&curStart)
				tr.finish(cur, &d)
			}
			cur, curStart = tr.begin(s.ID, "block"), lt
		}
		g := b.Build(adv, comp.Horizon())
		t1 := tr.now()
		sim.RunWithGraphInto(proto, g, &sc, &res)
		t2 := tr.now()
		comp.Add(adv, g, res.Decisions)
		t3 := tr.now()
		g.Release()
		last = tr.now()
		lt[lKnowledge] += t1 - t0 + last - t3
		lt[lDecide0] += t2 - t1
		lt[lUnbeatAdd] += t3 - t2
		n++
	}
	lt[lEnum] += tr.now() - last
	if cur != nil {
		d := lt.sub(&curStart)
		tr.finish(cur, &d)
	}
	tr.finish(s, &lt)
	return lt, b, n, comp, nil
}
