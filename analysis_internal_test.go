package setconsensus

import (
	"context"
	"strings"
	"testing"

	"setconsensus/internal/govern"
	"setconsensus/internal/knowledge"
	"setconsensus/internal/model"
)

// TestCompileWindows pins how the compile stage cuts a space: windows
// of a quarter of a worker's share, at least minCompileWindow, aligned
// to the pattern block, and one window — the inline, merge-free path —
// for a single worker or a space under two windows.
func TestCompileWindows(t *testing.T) {
	cases := []struct {
		name                 string
		count, workers       int
		block                int
		wantSize, wantWindow int
	}{
		{"jobs search n=3 stays whole", 1736, 2, 8, 1736, 1},
		{"below two windows stays whole", 2*minCompileWindow - 1, 8, 1, 2*minCompileWindow - 1, 1},
		{"one worker stays whole", 87568, 1, 16, 87568, 1},
		{"split test space, 2 workers", 10256, 2, 16, 4096, 3},
		{"split test space, 3 workers", 10256, 3, 16, 4096, 3},
		{"analyze benchmark space, 2 workers", 87568, 2, 16, 10960, 8},
		{"minimum rounds up to the block", 20000, 4, 81, 4131, 5},
	}
	for _, c := range cases {
		size, windows := compileWindows(c.count, c.workers, c.block)
		if size != c.wantSize || windows != c.wantWindow {
			t.Errorf("%s: compileWindows(%d, %d, %d) = (%d, %d), want (%d, %d)",
				c.name, c.count, c.workers, c.block, size, windows, c.wantSize, c.wantWindow)
		}
		if windows > 1 && (size%c.block != 0 || size < minCompileWindow || (windows-1)*size >= c.count) {
			t.Errorf("%s: windows of %d misaligned, undersized or past the end", c.name, size)
		}
	}
}

// lastSubsetPanic is a test protocol: Optmin, except that Decide panics
// on every run in which process 3 alone crashes — the last crasher
// subset of an n=4 enumeration, so the panic fires in the last compile
// window, on a worker goroutine.
type lastSubsetPanic struct{ Protocol }

func (p lastSubsetPanic) Decide(g *knowledge.Graph, i model.Proc, m int) (model.Value, bool) {
	if g.CrashRound(3) <= 2 && g.CrashRound(0) > 2 && g.CrashRound(1) > 2 && g.CrashRound(2) > 2 {
		panic("test: injected compile panic")
	}
	return p.Protocol.Decide(g, i, m)
}

// TestAnalyzeCompilePanicIsolated pins panic isolation in the split
// compile: a protocol panic on a compile worker fails the analysis with
// a typed *govern.PanicError carrying the panic value, the panicking
// worker's kit is discarded while the other worker's is repooled, the
// engine stays usable, and after Close the governor account is back to
// zero.
func TestAnalyzeCompilePanicIsolated(t *testing.T) {
	reg := NewRegistry()
	optmin, err := DefaultRegistry().Lookup("optmin")
	if err != nil {
		t.Fatal(err)
	}
	reg.MustRegister(*optmin)
	panicky := *optmin
	panicky.Name, panicky.Aliases = "panicky", nil
	panicky.New = func(p Params) (Protocol, error) {
		base, err := optmin.New(p)
		return lastSubsetPanic{base}, err
	}
	reg.MustRegister(panicky)
	analyses := NewAnalysisRegistry()
	analyses.MustRegister(searchAnalysisSpec("search:panicky", nil, "panicky", false))
	analyses.MustRegister(searchAnalysisSpec("search:optmin", nil, "optmin", false))

	gov := govern.New(0, 0)
	eng := New(WithParallelism(2), WithRegistry(reg), WithAnalyses(analyses), WithGovernor(gov))
	space := Space{N: 4, T: 2, MaxRound: 2, Values: []int{0, 1}}
	if _, windows := compileWindows(space.Count(), 2, space.PatternBlock()); windows < 2 {
		t.Fatalf("space compiles as %d window; the test needs a split compile", windows)
	}

	ctx := context.Background()
	_, err = eng.Analyze(ctx, "search:panicky:n=4,t=2,r=2,width=1")
	pe, ok := govern.AsPanic(err)
	if !ok {
		t.Fatalf("panicking compile returned %v, want a *govern.PanicError", err)
	}
	if pe.Op != "engine: analysis compile" || !strings.Contains(pe.Error(), "injected compile panic") {
		t.Fatalf("panic error lost its site or value: op %q, %v", pe.Op, pe.Value)
	}
	eng.kitMu.Lock()
	pooled := len(eng.kitFree)
	eng.kitMu.Unlock()
	if pooled != 1 {
		t.Fatalf("%d kits pooled after the panic, want 1: the panicking worker's kit must be discarded", pooled)
	}

	rep, err := eng.Analyze(ctx, "search:optmin:n=4,t=2,r=2,width=1")
	if err != nil {
		t.Fatalf("engine unusable after a recovered compile panic: %v", err)
	}
	if rep.Search.Runs != space.Count() || rep.Search.Beaten {
		t.Fatalf("analysis after the panic reports %+v", rep.Search)
	}
	eng.Close()
	if live := gov.Live(); live != 0 {
		t.Fatalf("live account = %d after Close, want 0", live)
	}
}
