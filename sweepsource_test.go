package setconsensus_test

import (
	"context"
	"errors"
	"sort"
	"strings"
	"testing"

	setconsensus "setconsensus"
)

// TestSweepSourceGoldenVsSlice is the acceptance comparison: on a small
// space, the streamed SweepSource must aggregate exactly the decisions
// the slice-based Sweep produces.
func TestSweepSourceGoldenVsSlice(t *testing.T) {
	space := setconsensus.Space{N: 3, T: 2, MaxRound: 2, Values: []int{0, 1}}
	refs := []string{"optmin", "upmin", "floodmin"}
	eng := setconsensus.New(setconsensus.WithCrashBound(2), setconsensus.WithDegree(1))

	advs, err := space.Adversaries()
	if err != nil {
		t.Fatal(err)
	}
	results, err := eng.Sweep(context.Background(), refs, advs)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := eng.NewAggregator("golden", refs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		golden.Add(r)
	}

	src, err := setconsensus.SpaceSource(space)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := eng.SweepSource(context.Background(), refs, src)
	if err != nil {
		t.Fatal(err)
	}

	want := golden.Summary()
	if sum.Runs() != want.Runs() || sum.Runs() != len(refs)*len(advs) {
		t.Fatalf("runs: source %d, slice %d, want %d", sum.Runs(), want.Runs(), len(refs)*len(advs))
	}
	for i, p := range sum.Protocols {
		w := want.Protocols[i]
		if p.Ref != w.Ref || p.Runs != w.Runs || p.Undecided != w.Undecided ||
			p.Violations != w.Violations || p.MaxTime != w.MaxTime || p.SumTime != w.SumTime {
			t.Errorf("protocol %s: source %+v, slice %+v", p.Ref, p, w)
		}
		if len(p.TimeHist) != len(w.TimeHist) {
			t.Errorf("protocol %s: histogram sizes differ", p.Ref)
		}
		for tm, n := range w.TimeHist {
			if p.TimeHist[tm] != n {
				t.Errorf("protocol %s: hist[%d] = %d, want %d", p.Ref, tm, p.TimeHist[tm], n)
			}
		}
		if p.Violations != 0 {
			t.Errorf("protocol %s: %d task violations on the exhaustive space", p.Ref, p.Violations)
		}
	}

	// The streaming variant emits exactly the Sweep result set.
	var want2, got []string
	for _, r := range results {
		want2 = append(want2, r.String())
	}
	if err := eng.SweepSourceStream(context.Background(), refs, src, func(r *setconsensus.Result) {
		got = append(got, r.String())
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(want2)
	sort.Strings(got)
	if len(got) != len(want2) {
		t.Fatalf("stream emitted %d results, want %d", len(got), len(want2))
	}
	for i := range got {
		if got[i] != want2[i] {
			t.Fatalf("stream result set differs at %d:\n%s\n%s", i, got[i], want2[i])
		}
	}
}

// TestSweepSourceStreamsLargeSpace is the acceptance streaming check: an
// exhaustive space of ≥ 10k canonical adversaries sweeps straight off
// the iterator — no materialized slice anywhere in the path — and every
// run lands in the summary.
func TestSweepSourceStreamsLargeSpace(t *testing.T) {
	if testing.Short() {
		t.Skip("large-space sweep skipped in -short mode")
	}
	space := setconsensus.Space{N: 4, T: 2, MaxRound: 2, Values: []int{0, 1}}
	count := 0
	for range space.All() {
		count++
	}
	if count < 10000 {
		t.Fatalf("space holds %d canonical adversaries, need ≥ 10000", count)
	}
	src, err := setconsensus.SpaceSource(space)
	if err != nil {
		t.Fatal(err)
	}
	eng := setconsensus.New(setconsensus.WithCrashBound(2), setconsensus.WithDegree(1))
	sum, err := eng.SweepSource(context.Background(), []string{"optmin"}, src)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Adversaries() != count {
		t.Fatalf("summary saw %d adversaries, want %d", sum.Adversaries(), count)
	}
	p := sum.Protocols[0]
	if p.Undecided != 0 || p.Violations != 0 {
		t.Fatalf("optmin over the space: %d undecided, %d violations", p.Undecided, p.Violations)
	}
	t.Logf("streamed %d canonical adversaries: hist %s", count, p.HistString())
}

// TestSweepSourceCancellation cancels after the first emitted result;
// the stream must abort promptly with ctx.Err().
func TestSweepSourceCancellation(t *testing.T) {
	space := setconsensus.Space{N: 4, T: 2, MaxRound: 2, Values: []int{0, 1}}
	src, err := setconsensus.SpaceSource(space)
	if err != nil {
		t.Fatal(err)
	}
	eng := setconsensus.New(
		setconsensus.WithCrashBound(2),
		setconsensus.WithParallelism(2),
	)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	emitted := 0
	err = eng.SweepSourceStream(ctx, []string{"optmin", "upmin"}, src, func(*setconsensus.Result) {
		emitted++
		if emitted == 1 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// Prompt abort: nothing beyond the in-flight chunks may finish.
	if emitted > 2*64*2 {
		t.Fatalf("cancellation did not stop the stream: %d results", emitted)
	}
	if _, err := eng.SweepSource(ctx, []string{"optmin"}, src); !errors.Is(err, context.Canceled) {
		t.Fatalf("SweepSource on a dead context: %v", err)
	}
}

func TestSweepSourceInputErrors(t *testing.T) {
	eng := setconsensus.New()
	ctx := context.Background()
	src := setconsensus.SliceSource(setconsensus.NewBuilder(3, 0).MustBuild())
	if _, err := eng.SweepSource(ctx, nil, src); err == nil {
		t.Error("no protocols must error")
	}
	if _, err := eng.SweepSource(ctx, []string{"optmin"}, nil); err == nil {
		t.Error("nil source must error")
	}
	if err := eng.SweepSourceStream(ctx, []string{"optmin"}, nil, func(*setconsensus.Result) {}); err == nil {
		t.Error("nil source must error on the stream variant")
	}
	if _, err := eng.SweepSource(ctx, []string{"unknown"}, src); err == nil {
		t.Error("unknown protocol must error")
	}
	// Duplicate refs would fold two runs per adversary into one summary
	// row; aggregated sweeps reject them up front.
	if _, err := eng.SweepSource(ctx, []string{"optmin", "optmin"}, src); err == nil {
		t.Error("duplicate refs must error on the aggregated path")
	}
	// A limit clamped below zero is an empty workload, not a hang.
	sum0, err := eng.SweepSource(ctx, []string{"optmin"}, setconsensus.LimitSource(src, -5))
	if err != nil {
		t.Fatal(err)
	}
	if sum0.Runs() != 0 {
		t.Fatalf("negative limit produced %d runs", sum0.Runs())
	}
	// An empty source is a legitimate workload: zero runs, no error.
	sum, err := eng.SweepSource(ctx, []string{"optmin"}, setconsensus.SliceSource())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Runs() != 0 {
		t.Fatalf("empty source produced %d runs", sum.Runs())
	}
}

func TestAggregatorTracksWireBits(t *testing.T) {
	adv, tb := collapseAdv(t, 2, 3)
	eng := setconsensus.New(
		setconsensus.WithBackend(setconsensus.Wire),
		setconsensus.WithCrashBound(tb),
		setconsensus.WithDegree(2),
	)
	sum, err := eng.SweepSource(context.Background(), []string{"optmin", "upmin"}, setconsensus.SliceSource(adv))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range sum.Protocols {
		if p.TotalBits == 0 || p.MaxPair == 0 {
			t.Errorf("%s: wire sweep recorded no bits: %+v", p.Ref, p)
		}
		if p.Violations != 0 {
			t.Errorf("%s: %d violations", p.Ref, p.Violations)
		}
	}
	tbl := setconsensus.SummaryTable(sum)
	rendered := tbl.Render()
	if !strings.Contains(rendered, "total bits") || !strings.Contains(rendered, "optmin") {
		t.Errorf("summary table missing bit columns:\n%s", rendered)
	}
}

// TestSweepSourceRecycledGraphsGolden pins the graph-recycling worker
// path: SweepSource on a default engine builds each shard's knowledge
// graphs in a per-worker reused arena (full build, then delta patches
// within each pattern block) and releases them as soon as their results
// are aggregated. Its differential twin is the same engine's
// SweepSourceStream folded through Aggregator.Add, which builds a fresh
// graph per adversary and retains every Result. The summaries must be
// identical — a stale-arena bug, a wrong patch, or a Result that
// outlives its Release would diverge here.
func TestSweepSourceRecycledGraphsGolden(t *testing.T) {
	space := setconsensus.Space{N: 3, T: 2, MaxRound: 2, Values: []int{0, 1}}
	refs := []string{"optmin", "upmin", "floodmin"}
	eng := setconsensus.New(setconsensus.WithCrashBound(2))

	src, err := setconsensus.SpaceSource(space)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := eng.NewAggregator(src.Label(), refs)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SweepSourceStream(context.Background(), refs, src, fresh.Add); err != nil {
		t.Fatal(err)
	}
	src, err = setconsensus.SpaceSource(space)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.SweepSource(context.Background(), refs, src)
	if err != nil {
		t.Fatal(err)
	}
	want := fresh.Summary()
	if got.Runs() != want.Runs() {
		t.Fatalf("recycled path ran %d, fresh-graph stream %d", got.Runs(), want.Runs())
	}
	for i, p := range got.Protocols {
		w := want.Protocols[i]
		if p.Ref != w.Ref || p.Runs != w.Runs || p.Undecided != w.Undecided ||
			p.Violations != w.Violations || p.MaxTime != w.MaxTime || p.SumTime != w.SumTime {
			t.Errorf("protocol %s: recycled %+v, fresh-graph stream %+v", p.Ref, p, w)
		}
		for tm, n := range w.TimeHist {
			if p.TimeHist[tm] != n {
				t.Errorf("protocol %s: hist[%d] = %d, want %d", p.Ref, tm, p.TimeHist[tm], n)
			}
		}
	}
}

// TestSweepSourceMetersPatches pins the delta-order sweep's build
// economics exactly: on a pattern-block-aligned sweep of an exhaustive
// space, the engine performs one full knowledge-graph build per
// canonical failure pattern and patches every other adversary of the
// block (same pattern, one input changed). Any drift — a chunk boundary
// landing mid-block, a patch silently falling back to a rebuild, a
// revive sneaking in — breaks an equality here. The graph cache must
// not gate this: a default engine (cache on) recycles exactly like a
// cache-off one, and leaves its cache empty.
func TestSweepSourceMetersPatches(t *testing.T) {
	space := setconsensus.Space{N: 3, T: 2, MaxRound: 2, Values: []int{0, 1}}
	refs := []string{"upmin"}
	cases := []struct {
		name string
		opts []setconsensus.Option
	}{
		{"workers=1", []setconsensus.Option{setconsensus.WithGraphCache(0), setconsensus.WithParallelism(1)}},
		{"workers=4", []setconsensus.Option{setconsensus.WithGraphCache(0), setconsensus.WithParallelism(4)}},
		{"default", nil},
	}
	for _, tc := range cases {
		eng := setconsensus.New(append([]setconsensus.Option{setconsensus.WithCrashBound(2)}, tc.opts...)...)
		src, err := setconsensus.SpaceSource(space)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := eng.SweepSource(context.Background(), refs, src)
		if err != nil {
			t.Fatal(err)
		}
		total := sum.Runs() / len(refs)
		block := space.PatternBlock()
		if block <= 1 || total%block != 0 {
			t.Fatalf("space yields %d adversaries, not a multiple of block %d", total, block)
		}
		patterns := int64(total / block)
		st := eng.Stats()
		if st.GraphsRebuilt != patterns {
			t.Errorf("%s: GraphsRebuilt = %d, want one per pattern (%d)",
				tc.name, st.GraphsRebuilt, patterns)
		}
		if st.GraphsRevived != 0 {
			t.Errorf("%s: GraphsRevived = %d on a delta-ordered sweep", tc.name, st.GraphsRevived)
		}
		if want := int64(total) - patterns; st.GraphsPatched != want {
			t.Errorf("%s: GraphsPatched = %d, want total-patterns = %d",
				tc.name, st.GraphsPatched, want)
		}
		if st.CachedGraphs != 0 {
			t.Errorf("%s: CachedGraphs = %d after an aggregating sweep", tc.name, st.CachedGraphs)
		}
	}
}
