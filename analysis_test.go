package setconsensus_test

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	setconsensus "setconsensus"
	"setconsensus/internal/topology"
)

func analysisEngine(par int, opts ...setconsensus.Option) *setconsensus.Engine {
	return setconsensus.New(append([]setconsensus.Option{setconsensus.WithParallelism(par)}, opts...)...)
}

// TestAnalyzeParallelEquivalence pins the acceptance contract:
// Engine.Analyze with Parallelism 1 and Parallelism N produce identical
// AnalysisReports, field for field, for every built-in family. Run with
// -race in CI this also exercises the sharded candidate testing and
// certificate accumulators.
func TestAnalyzeParallelEquivalence(t *testing.T) {
	refs := []string{
		"search:optmin:n=3,t=2,r=2,width=2",
		"search:upmin:n=3,t=2,r=2,width=2",
		"lemma2:c=2",
		"forced:k=2",
	}
	ctx := context.Background()
	for _, ref := range refs {
		t.Run(ref, func(t *testing.T) {
			seq, err := analysisEngine(1).Analyze(ctx, ref)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{2, 4} {
				got, err := analysisEngine(par).Analyze(ctx, ref)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(seq, got) {
					t.Fatalf("parallelism %d diverges:\nseq: %+v\npar: %+v", par, seq, got)
				}
			}
		})
	}
}

// TestAnalyzeSearchMatchesDirectSearch pins that the Engine's pooled
// compile path produces exactly the report of the direct sequential
// Search over the same configuration.
func TestAnalyzeSearchMatchesDirectSearch(t *testing.T) {
	ctx := context.Background()
	rep, err := analysisEngine(4).Analyze(ctx, "search:optmin:n=3,t=2,r=3,width=2")
	if err != nil {
		t.Fatal(err)
	}
	base, err := setconsensus.NewProtocol("optmin", setconsensus.Params{N: 3, T: 2, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := setconsensus.Search(ctx, base, setconsensus.SearchParams{
		Space: setconsensus.Space{N: 3, T: 2, MaxRound: 3, Values: []int{0, 1}},
		K:     1, T: 2, Width: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Search, direct) {
		t.Fatalf("engine compile path diverges from direct search:\nengine: %+v\ndirect: %+v", rep.Search, direct)
	}
}

// TestAnalyzeSplitCompileMatchesDirectSearch is the determinism
// contract on a space large enough for the compile stage to split:
// search:upmin:n=4,t=2,r=2 has 10,256 adversaries, so engines with two
// or more workers compile it as several windows merged back in offset
// order, while a one-worker engine compiles it in one pass. Every
// parallelism must report exactly what the direct sequential Search
// reports. Under -race this also exercises the concurrent segment
// compiles and their hand-off to the merge.
func TestAnalyzeSplitCompileMatchesDirectSearch(t *testing.T) {
	ctx := context.Background()
	base, err := setconsensus.NewProtocol("upmin", setconsensus.Params{N: 4, T: 2, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := setconsensus.Search(ctx, base, setconsensus.SearchParams{
		Space: setconsensus.Space{N: 4, T: 2, MaxRound: 2, Values: []int{0, 1}},
		K:     1, T: 2, Uniform: true, Width: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if direct.Runs != 10256 {
		t.Fatalf("direct search compiled %d runs, want 10256", direct.Runs)
	}
	var first *setconsensus.AnalysisReport
	for _, par := range []int{1, 2, 3} {
		rep, err := analysisEngine(par).Analyze(ctx, "search:upmin:n=4,t=2,r=2,width=2")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep.Search, direct) {
			t.Fatalf("parallelism %d diverges from direct search:\nengine: %+v\ndirect: %+v", par, rep.Search, direct)
		}
		if first == nil {
			first = rep
		} else if !reflect.DeepEqual(rep, first) {
			t.Fatalf("parallelism %d report diverges:\nP1: %+v\nP%d: %+v", par, first, par, rep)
		}
	}
}

// TestAnalyzeRejectsOutOfRangeParameters pins that parameters which
// size an allocation fail the analysis with an error before anything is
// built: a certificate family's chain count outside 1..model.MaxProcs
// (a negative count used to panic in the slice allocation, a huge one
// to allocate without bound), and a search's value range outside 0..63,
// given or defaulted from k (a huge one used to allocate the range
// whole, an overflowing one to panic).
func TestAnalyzeRejectsOutOfRangeParameters(t *testing.T) {
	for _, ref := range []string{
		"forced:k=-1",
		"lemma2:c=-2",
		"forced:k=5000",
		"search:optmin:n=3,k=100000000000",
		"search:optmin:n=3,v=0..100000000000000",
		"search:optmin:n=3,v=-9223372036854775808..9223372036854775807",
		"search:upmin:n=3,v=-1..1",
	} {
		if _, err := analysisEngine(1).Analyze(context.Background(), ref); err == nil {
			t.Errorf("%s: analysis succeeded, want a parameter-range error", ref)
		}
	}
}

// TestAnalyzeSplitCompileCancels cancels a split compile midway, from
// the progress callback: every compile worker must stop and the
// analysis return context.Canceled.
func TestAnalyzeSplitCompileCancels(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := analysisEngine(2).AnalyzeStream(ctx, "search:upmin:n=4,t=2,r=2,width=2", func(p setconsensus.AnalysisProgress) {
		if p.Stage == "compile" && p.Done >= 5000 {
			cancel()
		}
	})
	if err != context.Canceled {
		t.Fatalf("analysis cancelled mid-compile returned %v, want context.Canceled", err)
	}
}

func TestAnalyzeCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, ref := range []string{"search:optmin", "search:upmin", "lemma2", "forced"} {
		if _, err := analysisEngine(2).Analyze(ctx, ref); err != context.Canceled {
			t.Errorf("%s: cancelled analysis returned %v, want context.Canceled", ref, err)
		}
	}
}

func TestAnalyzeCertificateFamilies(t *testing.T) {
	ctx := context.Background()
	forced, err := analysisEngine(4, setconsensus.WithDegree(3)).Analyze(ctx, "forced")
	if err != nil {
		t.Fatal(err)
	}
	if forced.Nodes == 0 || forced.Certified != forced.Nodes || forced.Orders == 0 {
		t.Fatalf("degenerate forced report: %+v", forced)
	}
	if !forced.OK() {
		t.Fatalf("forced analysis not OK: %+v", forced)
	}
	lemma2, err := analysisEngine(4, setconsensus.WithDegree(3)).Analyze(ctx, "lemma2")
	if err != nil {
		t.Fatal(err)
	}
	if lemma2.Nodes == 0 || lemma2.Certified != lemma2.Nodes {
		t.Fatalf("degenerate lemma2 report: %+v", lemma2)
	}
}

func TestAnalyzeStreamProgressStages(t *testing.T) {
	var stages []string
	lastDone := -1
	_, err := analysisEngine(1).AnalyzeStream(context.Background(), "search:optmin:n=3,t=2,r=2,width=2",
		func(p setconsensus.AnalysisProgress) {
			if len(stages) == 0 || stages[len(stages)-1] != p.Stage {
				stages = append(stages, p.Stage)
				lastDone = -1
			}
			if p.Done < lastDone {
				t.Fatalf("stage %s: done went backwards (%d after %d)", p.Stage, p.Done, lastDone)
			}
			lastDone = p.Done
		})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"compile", "width-1", "width-2"}
	if !reflect.DeepEqual(stages, want) {
		t.Fatalf("stages = %v, want %v", stages, want)
	}
}

func TestAnalysisRegistryParse(t *testing.T) {
	cases := []struct {
		ref     string
		wantErr string
	}{
		{"search:optmin", ""},
		{"search:optmin:width=1,n=3", ""},
		{"search", ""}, // alias
		{"SEARCH:UPMIN", ""},
		{"forced:k=2,m=1", ""},
		{"nonsense", "unknown name"},
		{"search:optmin:bogus=1", "unknown parameter"},
		{"search:optmin:width", "malformed parameter"},
		{"forced:k=2,k=3", "duplicate parameter"},
	}
	for _, c := range cases {
		_, err := setconsensus.ParseAnalysis(c.ref)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%q: unexpected error %v", c.ref, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%q: error %v, want containing %q", c.ref, err, c.wantErr)
		}
	}
}

func TestAnalyzeRejectsNonOracleBackend(t *testing.T) {
	eng := setconsensus.New(setconsensus.WithBackend(setconsensus.Wire))
	_, err := eng.Analyze(context.Background(), "search:optmin")
	if err == nil || !strings.Contains(err.Error(), "Oracle") {
		t.Fatalf("wire-backend search analysis returned %v, want Oracle-backend error", err)
	}
}

// TestAnalyzeSpernerCrossCheck is the randomized topology cross-check:
// for small k, every random Sperner coloring of Div σ has an odd (hence
// nonzero) number of fully colored simplices — the combinatorial
// obstruction behind Theorem 1 — and, consistently, the deviation search
// over a small (n,k) space finds the base protocol unbeaten. A beating
// deviation would contradict the nonzero Sperner count: it would decide
// k+1 distinct values among correct processes on some run.
func TestAnalyzeSpernerCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ctx := context.Background()
	for _, k := range []int{1, 2} {
		div, err := setconsensus.DivK(k)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 8; trial++ {
			cnt, err := div.SpernerCount(div.RandomColoring(rng))
			if err != nil {
				t.Fatal(err)
			}
			if cnt%2 == 0 || cnt < 1 {
				t.Fatalf("k=%d trial %d: Sperner count %d — want odd ≥ 1", k, trial, cnt)
			}
		}
		// Matching search side: n = k+2 processes, t = k crashes.
		ref := map[int]string{
			1: "search:optmin:n=3,t=1,r=1,k=1,width=2",
			2: "search:optmin:n=4,t=2,r=1,k=2,width=1",
		}[k]
		rep, err := analysisEngine(2).Analyze(ctx, ref)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Search.Beaten {
			t.Fatalf("k=%d: search found a beat (%s) while the Sperner count is nonzero — the two disagree",
				k, rep.Search.Witness)
		}
		var _ *topology.Subdivision = div
	}
}
