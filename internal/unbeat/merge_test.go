package unbeat

import (
	"context"
	"math"
	"reflect"
	"testing"

	"setconsensus/internal/baseline"
	"setconsensus/internal/core"
	"setconsensus/internal/enum"
	"setconsensus/internal/knowledge"
	"setconsensus/internal/model"
	"setconsensus/internal/sim"
)

// compileSegments compiles p's space the way a split engine compile
// does: the window [0, cuts[0]) straight into the main compiler, every
// later window [cuts[i], cuts[i+1]) — the last one to the end of the
// space — into a segment of its own with its own builder, and the
// segments merged in offset order.
func compileSegments(t *testing.T, base sim.Protocol, p SearchParams, cuts []int) *Compiler {
	t.Helper()
	c, err := NewCompiler(p)
	if err != nil {
		t.Fatal(err)
	}
	starts := append([]int{0}, cuts...)
	segs := make([]*Compiler, len(starts))
	for i, off := range starts {
		seg := c
		if i > 0 {
			seg = c.NewSegment()
		}
		segs[i] = seg
		limit := math.MaxInt
		if i+1 < len(starts) {
			limit = starts[i+1] - off
		}
		builder := knowledge.NewBuilder()
		var sc sim.Scratch
		var res sim.Result
		for _, adv := range p.Space.Range(off, limit) {
			g := builder.Build(adv, seg.Horizon())
			sim.RunWithGraphInto(base, g, &sc, &res)
			seg.Add(adv, g, res.Decisions)
			g.Release()
		}
	}
	for _, seg := range segs[1:] {
		c.Merge(seg)
	}
	return c
}

// blockCuts returns the block boundaries from `from` to below `to`, every
// `every` blocks.
func blockCuts(block, from, to, every int) []int {
	var cuts []int
	for off := from; off < to; off += every * block {
		cuts = append(cuts, off)
	}
	return cuts
}

// TestMergeMatchesSequentialCompile pins Merge's contract: a space
// compiled as segments split at block boundaries and merged in offset
// order equals the single-compiler compile — the deviation list (so
// every ordinal), each run's interned id rows, the deviation views'
// occurrence sets, the base violation set and the Search report,
// witness included. The splits include one-block segments, a short
// final window and a split at every block, where nearly every segment
// interns views the earlier ones have not, so re-interning in any order
// but each segment's first-seen order shows up as permuted ids.
func TestMergeMatchesSequentialCompile(t *testing.T) {
	cases := []struct {
		name   string
		base   sim.Protocol
		p      SearchParams
		beaten bool
	}{
		{"optmin-unbeaten", core.MustOptmin(core.Params{N: 3, T: 2, K: 1}),
			SearchParams{Space: enum.Space{N: 3, T: 2, MaxRound: 2, Values: []model.Value{0, 1}}, K: 1, T: 2, Width: 2}, false},
		{"upmin-unbeaten", core.MustUPmin(core.Params{N: 3, T: 2, K: 1}),
			SearchParams{Space: enum.Space{N: 3, T: 2, MaxRound: 2, Values: []model.Value{0, 1}}, K: 1, T: 2, Uniform: true, Width: 2}, false},
		{"floodmin-beaten-w1", baseline.Must(baseline.FloodMin, core.Params{N: 3, T: 1, K: 1}),
			SearchParams{Space: enum.Space{N: 3, T: 1, MaxRound: 1, Values: []model.Value{0, 1}}, K: 1, T: 1, Width: 1}, true},
		{"floodmin-beaten-w2", baseline.Must(baseline.FloodMin, core.Params{N: 3, T: 1, K: 1}),
			SearchParams{Space: enum.Space{N: 3, T: 1, MaxRound: 1, Values: []model.Value{0, 1}}, K: 1, T: 1, Width: 2}, true},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			count := tc.p.Space.Count()
			block := tc.p.Space.PatternBlock()
			seq := compileSegments(t, tc.base, tc.p, nil)
			if seq.Runs() != count {
				t.Fatalf("sequential compile holds %d runs, the space counts %d", seq.Runs(), count)
			}
			want := seq.Compiled()
			wantRep, err := want.Search(ctx, SearchOptions{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			if wantRep.Beaten != tc.beaten || (tc.beaten && wantRep.Witness == nil) {
				t.Fatalf("sequential report %+v, want beaten=%v with a witness when beaten", wantRep, tc.beaten)
			}
			blocks := count / block
			splits := map[string][]int{
				"one-block-head":  {block, 2 * block, 3 * block},
				"halves":          {blocks / 2 * block},
				"short-final":     blockCuts(block, 4*block, count, 4),
				"every-block":     blockCuts(block, block, count, 1),
				"last-block-only": {count - block},
			}
			for name, cuts := range splits {
				t.Run(name, func(t *testing.T) {
					merged := compileSegments(t, tc.base, tc.p, cuts)
					if merged.Runs() != count {
						t.Fatalf("merged compile holds %d runs, want %d", merged.Runs(), count)
					}
					got := merged.Compiled()
					if !reflect.DeepEqual(got.devs, want.devs) {
						t.Fatalf("deviation lists differ:\nmerged:     %v\nsequential: %v", got.devs, want.devs)
					}
					if len(got.viewVals) != len(want.viewVals) {
						t.Fatalf("merged compile interned %d views, sequential %d", len(got.viewVals), len(want.viewVals))
					}
					for id, vals := range got.viewVals {
						if !vals.Equal(want.viewVals[id]) {
							t.Fatalf("view %d has values %s, sequential %s", id, vals, want.viewVals[id])
						}
					}
					for ri, sr := range got.runs {
						ref := want.runs[ri]
						if sr.adv.String() != ref.adv.String() {
							t.Fatalf("run %d is %s, sequential %s", ri, sr.adv, ref.adv)
						}
						if !reflect.DeepEqual(sr.seq, ref.seq) {
							t.Fatalf("run %d id rows %v, sequential %v", ri, sr.seq, ref.seq)
						}
					}
					for _, d := range want.devs {
						if !got.occurs[d.View].Equal(&want.occurs[d.View]) {
							t.Fatalf("view %d occurs in %s, sequential %s", d.View, &got.occurs[d.View], &want.occurs[d.View])
						}
					}
					if !got.baseBad.Equal(&want.baseBad) {
						t.Fatalf("base violations %s, sequential %s", &got.baseBad, &want.baseBad)
					}
					for _, par := range []int{1, 3} {
						rep, err := got.Search(ctx, SearchOptions{Parallelism: par})
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(rep, wantRep) {
							t.Fatalf("parallelism %d: merged report %+v (witness %s), sequential %+v (witness %s)",
								par, rep, rep.Witness, wantRep, wantRep.Witness)
						}
					}
				})
			}
		})
	}
}
