package enum

import (
	"testing"

	"setconsensus/internal/bitset"
	"setconsensus/internal/model"
)

// forEachRawPattern is the reference failure-pattern generator: every
// subset of processes of size ≤ T, every assignment of crash rounds,
// every delivery subset of the other processes — observably equal
// patterns included — in the enumeration order. The pattern is mutated
// in place between calls.
func (s Space) forEachRawPattern(fn func(*model.FailurePattern) bool) {
	var crashers []model.Proc
	fp := model.NewFailurePattern(s.N)
	var config func(idx int) bool
	config = func(idx int) bool {
		if idx == len(crashers) {
			return fn(fp)
		}
		p := crashers[idx]
		for round := 1; round <= s.MaxRound; round++ {
			for mask := 0; mask < 1<<uint(s.N-1); mask++ {
				// Mask bit b is process b below p and b+1 past it.
				d := bitset.New(s.N)
				for b := 0; b < s.N-1; b++ {
					if mask&(1<<uint(b)) != 0 {
						q := b
						if b >= p {
							q = b + 1
						}
						d.Add(q)
					}
				}
				fp.Crashes[p] = model.Crash{Round: round, Delivered: d}
				if !config(idx + 1) {
					return false
				}
			}
		}
		delete(fp.Crashes, p)
		return true
	}
	var subsets func(next int) bool
	subsets = func(next int) bool {
		if !config(0) {
			return false
		}
		if len(crashers) == s.T {
			return true
		}
		for p := next; p < s.N; p++ {
			crashers = append(crashers, p)
			ok := subsets(p + 1)
			crashers = crashers[:len(crashers)-1]
			if !ok {
				return false
			}
		}
		return true
	}
	subsets(0)
}

// referencePatterns dedups the raw generator the slow way — materializing
// Canonical() and keying a set on its rendered string — and returns the
// canonical patterns in order of first appearance: the pattern of block
// j spans offsets [j·block, (j+1)·block).
func referencePatterns(s Space) []*model.FailurePattern {
	var out []*model.FailurePattern
	seen := make(map[string]struct{})
	s.forEachRawPattern(func(fp *model.FailurePattern) bool {
		canon := fp.Canonical()
		key := canon.String()
		if _, dup := seen[key]; !dup {
			seen[key] = struct{}{}
			out = append(out, canon)
		}
		return true
	})
	return out
}

// forEachInputsFrom enumerates input vectors over s.Values beginning at
// the start-th vector, calling fn with each vector's index within the
// block. It is forEachInputsDeltaFrom with the changed index discarded.
func (s Space) forEachInputsFrom(start int, fn func(int, []model.Value) bool) bool {
	return s.forEachInputsDeltaFrom(start, func(i int, inputs []model.Value, _ int) bool {
		return fn(i, inputs)
	})
}

// TestBinaryKeyedDedupMatchesCanonicalStrings re-derives the canonical
// enumeration the slow way — the raw generator deduplicated on rendered
// Canonical() strings — and requires the streamed iterator, which
// generates only first-of-class patterns and keeps no dedup set, to agree
// adversary for adversary, offset for offset. A missed or spurious
// canonical equivalence diverges here.
func TestBinaryKeyedDedupMatchesCanonicalStrings(t *testing.T) {
	spaces := []Space{
		{N: 3, T: 2, MaxRound: 2, Values: []model.Value{0, 1}},
		{N: 4, T: 1, MaxRound: 3, Values: []model.Value{0, 1, 2}},
		{N: 2, T: 1, MaxRound: 1, Values: []model.Value{0}},
		{N: 4, T: 3, MaxRound: 3, Values: []model.Value{0, 1}},
		{N: 3, T: 2, MaxRound: 3, Values: []model.Value{0, 1, 2}},
	}
	for _, s := range spaces {
		type entry struct {
			offset int
			adv    string
		}
		var want []entry
		block := s.inputCount()
		for j, canon := range referencePatterns(s) {
			s.forEachInputsFrom(0, func(i int, inputs []model.Value) bool {
				want = append(want, entry{j*block + i, model.NewAdversary(inputs, canon).String()})
				return true
			})
		}

		var got []entry
		for off, adv := range s.All() {
			got = append(got, entry{off, adv.String()})
		}
		if len(got) != len(want) {
			t.Fatalf("%s: streamed walk yields %d adversaries, canonical-string walk %d", s.Label(), len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: walks diverge at %d: got %+v, want %+v", s.Label(), i, got[i], want[i])
			}
		}
	}
}

// TestAdversariesAreIndependent pins the slab carving: every yielded
// adversary owns its inputs — retaining some while the enumeration
// continues must not let later vectors overwrite earlier ones.
func TestAdversariesAreIndependent(t *testing.T) {
	s := Space{N: 3, T: 1, MaxRound: 1, Values: []model.Value{0, 1}}
	var advs []*model.Adversary
	var rendered []string
	for _, a := range s.All() {
		advs = append(advs, a)
		rendered = append(rendered, a.String())
	}
	for i, a := range advs {
		if a.String() != rendered[i] {
			t.Fatalf("adversary %d mutated after the walk: %s vs %s", i, a.String(), rendered[i])
		}
	}
}
