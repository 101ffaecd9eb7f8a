package setconsensus_test

// One benchmark per experiment (DESIGN.md §4) plus the ablation benches
// of DESIGN.md §7. Each BenchmarkEN regenerates the full table for its
// figure/theorem; the per-operation time is the cost of reproducing that
// piece of the paper end to end.

import (
	"context"
	"testing"

	setconsensus "setconsensus"
	"setconsensus/internal/core"
	"setconsensus/internal/experiments"
	"setconsensus/internal/govern"
	"setconsensus/internal/knowledge"
	"setconsensus/internal/model"
	"setconsensus/internal/sim"
	"setconsensus/internal/wire"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1HiddenPath(b *testing.B)       { benchExperiment(b, "E1") }
func BenchmarkE2HiddenCapacity(b *testing.B)   { benchExperiment(b, "E2") }
func BenchmarkE3ForcedDecisions(b *testing.B)  { benchExperiment(b, "E3") }
func BenchmarkE4Separation(b *testing.B)       { benchExperiment(b, "E4") }
func BenchmarkE5Sperner(b *testing.B)          { benchExperiment(b, "E5") }
func BenchmarkE6Bounds(b *testing.B)           { benchExperiment(b, "E6") }
func BenchmarkE7Unbeatability(b *testing.B)    { benchExperiment(b, "E7") }
func BenchmarkE8StarConnectivity(b *testing.B) { benchExperiment(b, "E8") }
func BenchmarkE9LastDecider(b *testing.B)      { benchExperiment(b, "E9") }
func BenchmarkE10WireCost(b *testing.B)        { benchExperiment(b, "E10") }

// Ablation: the knowledge-graph hidden-capacity tables (precomputed,
// word-parallel bitsets) vs a naive per-query rescan.
func BenchmarkHCPrecomputed(b *testing.B) {
	adv, err := model.Collapse(model.CollapseParams{K: 3, R: 6, ExtraCorrect: 4})
	if err != nil {
		b.Fatal(err)
	}
	g := knowledge.New(adv, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := 0; p < adv.N(); p++ {
			g.HiddenCapacity(p, 8)
		}
	}
}

func BenchmarkHCNaive(b *testing.B) {
	adv, err := model.Collapse(model.CollapseParams{K: 3, R: 6, ExtraCorrect: 4})
	if err != nil {
		b.Fatal(err)
	}
	g := knowledge.New(adv, 8)
	naive := func(i, m int) int {
		hc := adv.N()
		for l := 0; l <= m; l++ {
			c := 0
			for j := 0; j < adv.N(); j++ {
				if g.Hidden(i, m, j, l) {
					c++
				}
			}
			if c < hc {
				hc = c
			}
		}
		return hc
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := 0; p < adv.N(); p++ {
			naive(p, 8)
		}
	}
}

// Graph construction: the arena-backed knowledge.New on a mid-size
// collapse adversary. Allocations are the headline number — the build is
// a handful of slab allocations regardless of n and horizon.
func BenchmarkGraphNew(b *testing.B) {
	adv, err := model.Collapse(model.CollapseParams{K: 3, R: 6, ExtraCorrect: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		knowledge.New(adv, 8)
	}
}

// Graph construction through one Builder with Release between builds:
// the steady state of an aggregating sweep shard, where the arena is
// recycled and the build allocates (almost) nothing. The alternating
// adversaries share a pattern but differ in two inputs, pinning the
// measurement to the revive path — an identical vector would ride the
// zero-diff skip and a single diff the patch kernel, both far cheaper
// than the value-layer refill this benchmark tracks.
func BenchmarkGraphBuilderReuse(b *testing.B) {
	adv, err := model.Collapse(model.CollapseParams{K: 3, R: 6, ExtraCorrect: 4})
	if err != nil {
		b.Fatal(err)
	}
	inputs := make([]model.Value, len(adv.Inputs))
	copy(inputs, adv.Inputs)
	inputs[0] ^= 1
	inputs[1] ^= 1
	other := &model.Adversary{Inputs: inputs, Pattern: adv.Pattern}
	builder := knowledge.NewBuilder()
	builder.Build(adv, 8).Release()
	pair := [2]*model.Adversary{other, adv}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builder.Build(pair[i&1], 8).Release()
	}
}

// View fingerprinting: the binary encoding over every process at the
// horizon, the interning workload of the unbeatability search.
func BenchmarkFingerprint(b *testing.B) {
	adv, err := model.Collapse(model.CollapseParams{K: 3, R: 6, ExtraCorrect: 4})
	if err != nil {
		b.Fatal(err)
	}
	g := knowledge.New(adv, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := 0; p < adv.N(); p++ {
			g.Fingerprint(p, 8)
		}
	}
}

// Adversary fingerprinting: the binary graph-cache key in the Engine.
func BenchmarkAdversaryFingerprint(b *testing.B) {
	adv, err := model.Collapse(model.CollapseParams{K: 3, R: 6, ExtraCorrect: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adv.Fingerprint()
	}
}

// Ablation: full-information oracle vs compact wire protocol on the same
// run (decision-time-identical; the wire pays message handling, the
// oracle pays view union).
func BenchmarkOracleOptmin(b *testing.B) {
	cp := model.CollapseParams{K: 3, R: 5, ExtraCorrect: 4}
	adv, err := model.Collapse(cp)
	if err != nil {
		b.Fatal(err)
	}
	proto := core.MustOptmin(core.Params{N: adv.N(), T: model.CollapseT(cp), K: 3})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(proto, adv)
	}
}

func BenchmarkWireOptmin(b *testing.B) {
	cp := model.CollapseParams{K: 3, R: 5, ExtraCorrect: 4}
	adv, err := model.Collapse(cp)
	if err != nil {
		b.Fatal(err)
	}
	p := core.Params{N: adv.N(), T: model.CollapseT(cp), K: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Run(wire.RuleOptmin, p, adv); err != nil {
			b.Fatal(err)
		}
	}
}

// Sweep ablation: Engine.Sweep shares one knowledge graph per adversary
// across all protocols; the naive loop recomputes the graph for every
// (protocol, adversary) pair. The gap is the graph-sharing win that the
// batch facade exists for.
var sweepRefs = []string{
	"optmin", "upmin", "floodmin", "earlycount", "u-earlycount", "perround", "u-perround",
}

func sweepAdversary(b *testing.B) (*setconsensus.Adversary, int) {
	b.Helper()
	cp := model.CollapseParams{K: 3, R: 6, ExtraCorrect: 4}
	adv, err := model.Collapse(cp)
	if err != nil {
		b.Fatal(err)
	}
	return adv, model.CollapseT(cp)
}

func BenchmarkSweepSharedGraph(b *testing.B) {
	adv, tb := sweepAdversary(b)
	// Cache off: every iteration pays for exactly one graph, shared by
	// all protocols of the sweep.
	eng := setconsensus.New(
		setconsensus.WithCrashBound(tb),
		setconsensus.WithDegree(3),
		setconsensus.WithGraphCache(0),
		setconsensus.WithParallelism(1),
	)
	ctx := context.Background()
	advs := []*setconsensus.Adversary{adv}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Sweep(ctx, sweepRefs, advs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepNaivePerRunGraphs(b *testing.B) {
	adv, tb := sweepAdversary(b)
	p := core.Params{N: adv.N(), T: tb, K: 3}
	protos := make([]setconsensus.Protocol, len(sweepRefs))
	for i, ref := range sweepRefs {
		proto, err := setconsensus.NewProtocol(ref, p)
		if err != nil {
			b.Fatal(err)
		}
		protos[i] = proto
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, proto := range protos {
			setconsensus.Run(proto, adv) // knowledge.New per run
		}
	}
}

// Source-vs-slice ablation: the same exhaustive space swept through the
// same protocols, once materialized into a slice for Sweep and once
// streamed through SweepSource. The pair is the acceptance gate that the
// constant-memory streaming path costs no throughput.
var sweepSpaceRefs = []string{"optmin", "upmin"}

func sweepSpace() setconsensus.Space {
	return setconsensus.Space{N: 3, T: 2, MaxRound: 2, Values: []int{0, 1}}
}

func sweepSpaceEngine() *setconsensus.Engine {
	// Cache off: both paths pay one fresh graph per adversary, so the
	// comparison isolates the delivery machinery.
	return setconsensus.New(
		setconsensus.WithCrashBound(2),
		setconsensus.WithGraphCache(0),
	)
}

func BenchmarkSweepSlice(b *testing.B) {
	advs, err := sweepSpace().Adversaries()
	if err != nil {
		b.Fatal(err)
	}
	eng := sweepSpaceEngine()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Sweep(ctx, sweepSpaceRefs, advs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepSource(b *testing.B) {
	src, err := setconsensus.SpaceSource(sweepSpace())
	if err != nil {
		b.Fatal(err)
	}
	eng := sweepSpaceEngine()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.SweepSource(ctx, sweepSpaceRefs, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGovernedSweep is BenchmarkSweepSource with a resource
// governor attached (unlimited ceilings, so the retain path stays hot):
// its distance from BenchmarkSweepSource is the whole cost of byte
// metering on the sweep path. The governance acceptance is <2% ns/op
// and zero extra allocations — metering rides the existing ensure/pool
// choke points, it does not add per-run work.
func BenchmarkGovernedSweep(b *testing.B) {
	src, err := setconsensus.SpaceSource(sweepSpace())
	if err != nil {
		b.Fatal(err)
	}
	gov := govern.New(0, 0)
	eng := setconsensus.New(
		setconsensus.WithCrashBound(2),
		setconsensus.WithGraphCache(0),
		setconsensus.WithGovernor(gov),
	)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.SweepSource(ctx, sweepSpaceRefs, src); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if gov.Live() == 0 {
		b.Fatal("governed sweep metered zero bytes — metering is not wired")
	}
}

// Analysis pipeline: the staged deviation search (compile on the pooled
// run path, candidate testing sharded over the worker pool) through
// Engine.Analyze, on the seeded uniform n=4 space whose candidate
// testing is heavy enough to exercise the reworked stage. The
// pre-refactor sequential unbeat.Search on this space is retained as
// internal/unbeat's BenchmarkSearchReference — the ≥3x acceptance
// denominator; BenchmarkAnalyzeSequential isolates what the pipeline
// buys before parallel speedup. BenchmarkAnalyzeSplit runs a two-worker
// engine on a 24,592-adversary space, which the compile stage cuts into
// seven windows (the last a single pattern block): compile-dominated, it
// measures the segmented compile and its merge.
func benchAnalyze(b *testing.B, parallelism int, ref string) {
	b.Helper()
	eng := setconsensus.New(setconsensus.WithParallelism(parallelism))
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := eng.Analyze(ctx, ref)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Search.Beaten {
			b.Fatal("u-Pmin beaten — analysis broken")
		}
	}
}

const benchAnalysisRef = "search:upmin:n=4,t=2,r=2,width=2"

func BenchmarkAnalyze(b *testing.B)           { benchAnalyze(b, 4, benchAnalysisRef) }
func BenchmarkAnalyzeSequential(b *testing.B) { benchAnalyze(b, 1, benchAnalysisRef) }
func BenchmarkAnalyzeSplit(b *testing.B) {
	benchAnalyze(b, 2, "search:upmin:n=4,t=2,r=3,width=2")
}

func BenchmarkSweepCachedGraphs(b *testing.B) {
	adv, tb := sweepAdversary(b)
	// Cache on: after the first iteration the graph is a map hit.
	eng := setconsensus.New(
		setconsensus.WithCrashBound(tb),
		setconsensus.WithDegree(3),
		setconsensus.WithParallelism(1),
	)
	ctx := context.Background()
	advs := []*setconsensus.Adversary{adv}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Sweep(ctx, sweepRefs, advs); err != nil {
			b.Fatal(err)
		}
	}
}
