package enum

import (
	"math"
	"math/big"
	"sync"
	"testing"

	"setconsensus/internal/model"
)

// deltaEntry is one adversary of a walk, rendered, with its offset and
// changed-input annotation.
type deltaEntry struct {
	offset  int
	adv     string
	changed int
}

func deltaWalk(seq func(yield func(int, Delta) bool)) []deltaEntry {
	var out []deltaEntry
	for off, d := range seq {
		out = append(out, deltaEntry{off, d.Adv.String(), d.Changed})
	}
	return out
}

func rangeWalk(seq func(yield func(int, *model.Adversary) bool)) []deltaEntry {
	var out []deltaEntry
	for off, a := range seq {
		out = append(out, deltaEntry{off, a.String(), 0})
	}
	return out
}

// checkWindow requires a Range and a DeltaRange window at [off, off+limit)
// to equal the matching window of the full walk: same adversaries, same
// offsets, and for the delta form the full walk's Changed marks except
// the window's entry, which is -1.
func checkWindow(t *testing.T, s Space, all []deltaEntry, off, limit int) {
	t.Helper()
	var want []deltaEntry
	if off >= 0 && limit > 0 && off < len(all) {
		want = all[off:min(len(all), off+min(limit, len(all)))]
	}
	got := rangeWalk(s.Range(off, limit))
	if len(got) != len(want) {
		t.Fatalf("%s: Range(%d,%d) yields %d, want %d", s.Label(), off, limit, len(got), len(want))
	}
	for i := range want {
		if got[i].offset != want[i].offset || got[i].adv != want[i].adv {
			t.Fatalf("%s: Range(%d,%d)[%d] = %d %s, want %d %s", s.Label(), off, limit, i,
				got[i].offset, got[i].adv, want[i].offset, want[i].adv)
		}
	}
	gotDelta := deltaWalk(s.DeltaRange(off, limit))
	if len(gotDelta) != len(want) {
		t.Fatalf("%s: DeltaRange(%d,%d) yields %d, want %d", s.Label(), off, limit, len(gotDelta), len(want))
	}
	for i := range want {
		w := want[i]
		if i == 0 {
			w.changed = -1
		}
		if gotDelta[i] != w {
			t.Fatalf("%s: DeltaRange(%d,%d)[%d] = %+v, want %+v", s.Label(), off, limit, i, gotDelta[i], w)
		}
	}
}

// TestRangeSeekMatchesAll seeks Range and DeltaRange to every
// pattern-block boundary ±1 — crasher-subset boundaries, where a seek
// switches from closed-form skipping to walking, are among them — and
// tiles the space at a prime stride, requiring each window to equal the
// matching window of All. It also pins the closed-form size: Σ_k C(N,k) ·
// subsetPatterns()[k] · block is the length of All.
func TestRangeSeekMatchesAll(t *testing.T) {
	for _, s := range []Space{
		{N: 3, T: 2, MaxRound: 3, Values: []model.Value{0, 1, 2}},
		{N: 4, T: 3, MaxRound: 2, Values: []model.Value{0, 1}},
		{N: 5, T: 2, MaxRound: 1, Values: []model.Value{0}},
	} {
		all := deltaWalk(s.DeltaOrder(0))
		block := s.PatternBlock()

		perSize := s.subsetPatterns()
		total, choose := 0, 1
		for k := 0; k <= s.T; k++ {
			total += choose * int(perSize[k]) * block
			choose = choose * (s.N - k) / (k + 1)
		}
		if total != len(all) {
			t.Fatalf("%s: closed-form size %d, All yields %d", s.Label(), total, len(all))
		}

		for b := 0; b <= len(all); b += block {
			for _, off := range []int{b - 1, b, b + 1} {
				checkWindow(t, s, all, off, block+2)
			}
		}
		const stride = 97
		for off := 0; off < len(all); off += stride {
			checkWindow(t, s, all, off, stride)
		}
		for _, off := range []int{len(all), len(all) + 1, math.MaxInt, -1, math.MinInt} {
			checkWindow(t, s, all, off, 5)
		}
		checkWindow(t, s, all, 0, math.MaxInt)
		checkWindow(t, s, all, 3, 0)
		checkWindow(t, s, all, 3, -1)
	}
}

// TestSubsetPatternsMatchWalk requires the closed-form per-subset count
// to equal the number of canonical configurations the walk generates.
// (That the walk generates exactly the canonical patterns is the
// reference test's job.)
func TestSubsetPatternsMatchWalk(t *testing.T) {
	for _, s := range []Space{
		{N: 2, T: 1, MaxRound: 1, Values: []model.Value{0}},
		{N: 4, T: 3, MaxRound: 3, Values: []model.Value{0}},
		{N: 5, T: 4, MaxRound: 2, Values: []model.Value{0}},
		{N: 6, T: 3, MaxRound: 4, Values: []model.Value{0}},
	} {
		perSize := s.subsetPatterns()
		for k := 0; k <= s.T; k++ {
			crashers := make([]model.Proc, k)
			for i := range crashers {
				crashers[i] = s.N - k + i
			}
			var n uint64
			s.forEachConfig(crashers, func([]int, []uint64) bool { n++; return true })
			if n != perSize[k] {
				t.Errorf("%s: subsets of size %d walk %d patterns, closed form says %d", s.Label(), k, n, perSize[k])
			}
		}
	}
}

// TestSubsetPatternsSaturate pins the overflow guard on a space far too
// large to walk: every per-size count equals the exact count (computed
// with big integers by the same recurrence) when that fits in 64 bits,
// and is math.MaxUint64 — not the wrapped residue — when it does not.
// The input block saturates at math.MaxInt the same way.
func TestSubsetPatternsSaturate(t *testing.T) {
	s := Space{N: 40, T: 39, MaxRound: 3, Values: []model.Value{0, 1}}
	got := s.subsetPatterns()
	saturated := 0
	for k := 0; k <= s.T; k++ {
		ways := make([]*big.Int, k+1)
		for m := range ways {
			ways[m] = new(big.Int)
		}
		ways[0].SetInt64(1)
		for r := 1; r <= s.MaxRound; r++ {
			for m := k; m > 0; m-- {
				for c := 1; c <= m; c++ {
					term := new(big.Int).Binomial(int64(k-m+c), int64(c))
					term.Mul(term, ways[m-c])
					term.Lsh(term, uint(c*(s.N-m)))
					ways[m].Add(ways[m], term)
				}
			}
		}
		exact := ways[k]
		if exact.IsUint64() {
			if got[k] != exact.Uint64() {
				t.Fatalf("size %d: got %d, want %s", k, got[k], exact)
			}
			continue
		}
		saturated++
		wrapped := new(big.Int).And(exact, new(big.Int).SetUint64(math.MaxUint64)).Uint64()
		if got[k] != math.MaxUint64 {
			t.Fatalf("size %d: count %s overflows but got %d (wrapped residue %d), want saturation", k, exact, got[k], wrapped)
		}
	}
	if saturated == 0 {
		t.Fatal("no per-size count overflows; the space is too small to test saturation")
	}
	if s.inputCount() != 1<<40 {
		t.Fatalf("input block %d, want 2^40", s.inputCount())
	}
	if wide := (Space{N: 64, T: 1, MaxRound: 1, Values: []model.Value{0, 1}}); wide.inputCount() != math.MaxInt {
		t.Fatalf("input block of 2^64 vectors is %d, want saturation at math.MaxInt", wide.inputCount())
	}
}

// TestCountMatchesWalk pins Count against the walk: it is exactly the
// number of adversaries All yields, on spaces with and without crashes,
// with one and several values, and at the analysis benchmark's shape.
// Past 64 bits it saturates, and an invalid space counts 0.
func TestCountMatchesWalk(t *testing.T) {
	for _, s := range []Space{
		{N: 2, T: 0, MaxRound: 1, Values: []model.Value{0}},
		{N: 2, T: 1, MaxRound: 1, Values: []model.Value{0, 1}},
		{N: 3, T: 1, MaxRound: 1, Values: []model.Value{0, 1}},
		{N: 3, T: 2, MaxRound: 3, Values: []model.Value{0, 1, 2}},
		{N: 4, T: 3, MaxRound: 3, Values: []model.Value{0, 1}},
		{N: 5, T: 2, MaxRound: 2, Values: []model.Value{0}},
	} {
		walked := 0
		for range s.All() {
			walked++
		}
		if got := s.Count(); got != walked {
			t.Errorf("%s: Count = %d, All yields %d", s.Label(), got, walked)
		}
	}
	if got := (Space{N: 4, T: 3, MaxRound: 3, Values: []model.Value{0, 1}}).Count(); got != 87568 {
		t.Errorf("analysis benchmark space counts %d, want 87568", got)
	}
	if got := (Space{N: 40, T: 39, MaxRound: 3, Values: []model.Value{0, 1}}).Count(); got != math.MaxInt {
		t.Errorf("oversized space counts %d, want saturation at math.MaxInt", got)
	}
	if got := (Space{N: 64, T: 63, MaxRound: 1, Values: []model.Value{0}}).Count(); got != math.MaxInt {
		t.Errorf("widest space counts %d, want saturation at math.MaxInt", got)
	}
	if got := (Space{N: 1}).Count(); got != 0 {
		t.Errorf("invalid space counts %d, want 0", got)
	}
}

// referenceCache holds the reference walk's canonical patterns per space
// shape, so fuzzing does not re-run the exponential raw walk per input.
var referenceCache = struct {
	sync.Mutex
	m map[[4]int][]*model.FailurePattern
}{m: make(map[[4]int][]*model.FailurePattern)}

func cachedReference(s Space) []*model.FailurePattern {
	key := [4]int{s.N, s.T, s.MaxRound, len(s.Values)}
	referenceCache.Lock()
	defer referenceCache.Unlock()
	if pats, ok := referenceCache.m[key]; ok {
		return pats
	}
	pats := referencePatterns(s)
	referenceCache.m[key] = pats
	return pats
}

// FuzzSpaceRange checks Range over small spaces (n ≤ 4, r ≤ 3, |v| ≤ 3)
// at any offset and limit against the reference walk: the raw pattern
// generator deduplicated on rendered Canonical() strings.
func FuzzSpaceRange(f *testing.F) {
	// n, t, r, v select N = 2 + n%3, T = t%N, MaxRound = 1 + r%3 and
	// Values = {0..v%3}.
	f.Add(uint8(2), uint8(3), uint8(2), uint8(1), int64(43776), int64(256))
	f.Add(uint8(1), uint8(2), uint8(1), uint8(2), int64(-1), int64(10))
	f.Add(uint8(0), uint8(1), uint8(0), uint8(0), int64(4), int64(1))
	f.Fuzz(func(t *testing.T, n, tt, r, v uint8, offset, limit int64) {
		s := Space{N: 2 + int(n)%3, MaxRound: 1 + int(r)%3}
		s.T = int(tt) % s.N
		for i := 0; i <= int(v)%3; i++ {
			s.Values = append(s.Values, model.Value(i))
		}
		pats := cachedReference(s)
		block := s.inputCount()
		total := len(pats) * block
		off, lim := int(offset), int(limit)

		i := 0
		for idx, adv := range s.Range(off, lim) {
			want := off + i
			if off < 0 || lim <= 0 || want >= total || i >= lim {
				t.Fatalf("%s: Range(%d,%d) yields offset %d outside [0,%d)", s.Label(), off, lim, idx, total)
			}
			if idx != want {
				t.Fatalf("%s: Range(%d,%d)[%d] has offset %d, want %d", s.Label(), off, lim, i, idx, want)
			}
			var inputs []model.Value
			s.forEachInputsFrom(want%block, func(_ int, in []model.Value) bool {
				inputs = in
				return false
			})
			if got, ref := adv.String(), model.NewAdversary(inputs, pats[want/block]).String(); got != ref {
				t.Fatalf("%s: Range(%d,%d) at %d = %s, reference %s", s.Label(), off, lim, idx, got, ref)
			}
			i++
		}
		if off >= 0 && lim > 0 && off < total {
			if want := min(lim, total-off); i != want {
				t.Fatalf("%s: Range(%d,%d) yields %d adversaries, want %d", s.Label(), off, lim, i, want)
			}
		}
	})
}

var seekSink *model.Adversary

// BenchmarkSpaceRangeSeek measures one seek of a coordinated sweep over
// space:n=4,t=3,r=3,v=0..1 with ranges of 256: Range to the start of the
// middle range and of the last range, yielding one adversary.
func BenchmarkSpaceRangeSeek(b *testing.B) {
	s := Space{N: 4, T: 3, MaxRound: 3, Values: []model.Value{0, 1}}
	const rangeSize = 256
	total := 0
	for off := range s.All() {
		total = off + 1
	}
	ranges := (total + rangeSize - 1) / rangeSize
	for _, bc := range []struct {
		name   string
		offset int
	}{
		{"mid", ranges / 2 * rangeSize},
		{"last", (ranges - 1) * rangeSize},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				for _, adv := range s.Range(bc.offset, 1) {
					seekSink = adv
				}
			}
		})
	}
}
