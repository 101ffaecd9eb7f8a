package bitset

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestZeroValueUsable(t *testing.T) {
	var s Set
	if !s.Empty() {
		t.Fatal("zero value should be empty")
	}
	s.Add(5)
	if !s.Contains(5) || s.Count() != 1 {
		t.Fatalf("after Add(5): contains=%v count=%d", s.Contains(5), s.Count())
	}
}

func TestAddRemoveContains(t *testing.T) {
	s := New(10)
	for _, v := range []int{0, 3, 63, 64, 65, 200} {
		s.Add(v)
	}
	for _, v := range []int{0, 3, 63, 64, 65, 200} {
		if !s.Contains(v) {
			t.Errorf("missing %d", v)
		}
	}
	for _, v := range []int{1, 2, 62, 66, 199, 201} {
		if s.Contains(v) {
			t.Errorf("unexpected %d", v)
		}
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Error("64 not removed")
	}
	if got := s.Count(); got != 5 {
		t.Errorf("count = %d, want 5", got)
	}
}

func TestNegativeIgnored(t *testing.T) {
	s := New(4)
	s.Add(-1)
	if !s.Empty() {
		t.Error("Add(-1) must be a no-op")
	}
	if s.Contains(-3) {
		t.Error("Contains(-3) must be false")
	}
	s.Remove(-2) // must not panic
}

func TestFull(t *testing.T) {
	s := Full(70)
	if s.Count() != 70 {
		t.Fatalf("count = %d, want 70", s.Count())
	}
	for i := 0; i < 70; i++ {
		if !s.Contains(i) {
			t.Fatalf("missing %d", i)
		}
	}
	if s.Contains(70) {
		t.Fatal("should not contain 70")
	}
}

func TestSetOps(t *testing.T) {
	a := FromSlice([]int{1, 2, 3, 100})
	b := FromSlice([]int{2, 3, 4})
	if got := Union(a, b).Elems(); !equalInts(got, []int{1, 2, 3, 4, 100}) {
		t.Errorf("union = %v", got)
	}
	if got := Intersect(a, b).Elems(); !equalInts(got, []int{2, 3}) {
		t.Errorf("intersect = %v", got)
	}
	if got := Subtract(a, b).Elems(); !equalInts(got, []int{1, 100}) {
		t.Errorf("subtract = %v", got)
	}
	// operands unchanged
	if !equalInts(a.Elems(), []int{1, 2, 3, 100}) || !equalInts(b.Elems(), []int{2, 3, 4}) {
		t.Error("non-mutating ops changed operands")
	}
}

func TestEqualAcrossCapacities(t *testing.T) {
	a := New(4).Add(1)
	b := New(500).Add(1)
	if !a.Equal(b) || !b.Equal(a) {
		t.Error("sets with same elements but different capacity must be Equal")
	}
	b.Add(400)
	if a.Equal(b) {
		t.Error("differing sets reported Equal")
	}
}

func TestSubsetOf(t *testing.T) {
	a := FromSlice([]int{1, 2})
	b := FromSlice([]int{1, 2, 3})
	if !a.SubsetOf(b) {
		t.Error("a ⊆ b expected")
	}
	if b.SubsetOf(a) {
		t.Error("b ⊄ a expected")
	}
	var empty Set
	if !empty.SubsetOf(a) {
		t.Error("∅ ⊆ a expected")
	}
}

func TestNilReceiverSafety(t *testing.T) {
	var s *Set
	if s.Contains(1) || s.Count() != 0 || !s.Empty() {
		t.Error("nil set should behave as empty for read ops")
	}
	if got := s.Elems(); len(got) != 0 {
		t.Errorf("nil Elems = %v", got)
	}
	if _, ok := s.Min(); ok {
		t.Error("nil Min must report empty")
	}
	c := s.Clone()
	if !c.Empty() {
		t.Error("nil Clone should be empty")
	}
}

func TestMin(t *testing.T) {
	s := FromSlice([]int{130, 5, 64})
	if v, ok := s.Min(); !ok || v != 5 {
		t.Errorf("Min = %d,%v want 5,true", v, ok)
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := FromSlice([]int{1, 2, 3, 4})
	var seen []int
	s.ForEach(func(i int) bool {
		seen = append(seen, i)
		return len(seen) < 2
	})
	if !equalInts(seen, []int{1, 2}) {
		t.Errorf("seen = %v", seen)
	}
}

func TestString(t *testing.T) {
	if got := FromSlice([]int{2, 0}).String(); got != "{0, 2}" {
		t.Errorf("String = %q", got)
	}
	if got := New(3).String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
}

// Property: Elems is sorted and round-trips through FromSlice.
func TestQuickRoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		elems := make([]int, len(raw))
		for i, r := range raw {
			elems[i] = int(r % 512)
		}
		s := FromSlice(elems)
		got := s.Elems()
		if !sort.IntsAreSorted(got) {
			return false
		}
		return FromSlice(got).Equal(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: De Morgan-ish identity |A∪B| = |A| + |B| − |A∩B|.
func TestQuickInclusionExclusion(t *testing.T) {
	f := func(as, bs []uint16) bool {
		a, b := fromRaw(as), fromRaw(bs)
		return Union(a, b).Count() == a.Count()+b.Count()-Intersect(a, b).Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: A \ B is disjoint from B and A = (A\B) ∪ (A∩B).
func TestQuickSubtractPartition(t *testing.T) {
	f := func(as, bs []uint16) bool {
		a, b := fromRaw(as), fromRaw(bs)
		diff := Subtract(a, b)
		if !Intersect(diff, b).Empty() {
			return false
		}
		return Union(diff, Intersect(a, b)).Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func fromRaw(raw []uint16) *Set {
	s := &Set{}
	for _, r := range raw {
		s.Add(int(r % 300))
	}
	return s
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func BenchmarkUnionWith(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := New(1024)
	c := New(1024)
	for i := 0; i < 512; i++ {
		a.Add(rng.Intn(1024))
		c.Add(rng.Intn(1024))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.UnionWith(c)
	}
}

func BenchmarkCount(b *testing.B) {
	s := Full(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Count() != 4096 {
			b.Fatal("bad count")
		}
	}
}

func TestCopyFrom(t *testing.T) {
	src := FromSlice([]int{1, 63, 64, 130})
	dst := FromSlice([]int{2, 200, 500})
	if got := dst.CopyFrom(src); got != dst {
		t.Fatal("CopyFrom must return the receiver")
	}
	if !dst.Equal(src) {
		t.Fatalf("copy mismatch: %s vs %s", dst, src)
	}
	// The copy must be independent of the source.
	src.Add(7)
	if dst.Contains(7) {
		t.Error("CopyFrom aliased the source")
	}
	// Shrinking copy into a larger buffer must clear the tail.
	big := FromSlice([]int{500})
	big.CopyFrom(FromSlice([]int{3}))
	if big.Contains(500) || !big.Contains(3) || big.Count() != 1 {
		t.Errorf("stale tail after shrinking CopyFrom: %s", big)
	}
	// nil source empties the receiver in place.
	big.CopyFrom(nil)
	if !big.Empty() {
		t.Errorf("CopyFrom(nil) left %s", big)
	}
}

var growSet Set

// TestAddGrowsInOneAllocation pins grow: a set that first meets a large
// element — a run index of an 87,568-run compiled space — extends to it
// in one allocation, not one per capacity doubling.
func TestAddGrowsInOneAllocation(t *testing.T) {
	allocs := testing.AllocsPerRun(20, func() {
		growSet = Set{}
		growSet.Add(87567)
	})
	if allocs != 1 && !raceEnabled {
		t.Fatalf("Add(87567) on an empty set made %.0f allocations, want 1", allocs)
	}
	if !growSet.Contains(87567) || growSet.Count() != 1 {
		t.Fatalf("grown set holds %d elements", growSet.Count())
	}
	// Growing into spare capacity left by a shrinking CopyFrom must
	// zero the extension, not resurrect the stale words.
	s := FromSlice([]int{500})
	s.CopyFrom(FromSlice([]int{3}))
	s.Add(200)
	if s.Contains(500) || s.Count() != 2 {
		t.Fatalf("grow into spare capacity resurrected stale bits: %s", s)
	}
}

func TestWordsAliases(t *testing.T) {
	s := New(128).Add(0).Add(64)
	w := s.Words()
	if len(w) != 2 || w[0] != 1 || w[1] != 1 {
		t.Fatalf("unexpected words %v", w)
	}
	w[0] |= 1 << 5
	if !s.Contains(5) {
		t.Error("Words must alias the set storage")
	}
	var nilSet *Set
	if nilSet.Words() != nil {
		t.Error("nil set must have nil words")
	}
}

func TestWrapAliases(t *testing.T) {
	arena := make([]uint64, 2)
	s := Wrap(arena)
	s.Add(70)
	if arena[1] != 1<<6 {
		t.Fatalf("Wrap set must write into the arena, got %v", arena)
	}
	arena[0] = 1 << 3
	if !s.Contains(3) {
		t.Error("arena writes must be visible through the wrapped set")
	}
}

func TestAndNotCountPartialWords(t *testing.T) {
	cases := []struct {
		a, b []int
		want int
	}{
		{nil, nil, 0},
		{[]int{0, 63, 64, 127, 128}, nil, 5},
		{[]int{0, 63, 64, 127, 128}, []int{63, 128}, 3},
		{[]int{5}, []int{5, 700}, 0},
		// a longer than b: the tail beyond b's words counts fully.
		{[]int{10, 300, 301}, []int{10}, 2},
		// b longer than a: b's tail is irrelevant.
		{[]int{1}, []int{1, 2, 900}, 0},
	}
	for _, c := range cases {
		a, b := FromSlice(c.a), FromSlice(c.b)
		if got := AndNotCount(a, b); got != c.want {
			t.Errorf("AndNotCount(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := Subtract(a, b).Count(); got != c.want {
			t.Errorf("materialized subtract disagrees on (%v, %v): %d vs %d", c.a, c.b, got, c.want)
		}
	}
	if got := AndNotCount(nil, FromSlice([]int{1})); got != 0 {
		t.Errorf("AndNotCount(nil, x) = %d", got)
	}
}

func TestOrCountPartialWords(t *testing.T) {
	cases := []struct {
		a, b []int
		want int
	}{
		{nil, nil, 0},
		{[]int{0, 63}, nil, 2},
		{nil, []int{64, 65}, 2},
		{[]int{0, 63, 64}, []int{63, 64, 200}, 4},
		// Unequal word lengths in both orders.
		{[]int{1}, []int{1, 500}, 2},
		{[]int{1, 500}, []int{1}, 2},
	}
	for _, c := range cases {
		a, b := FromSlice(c.a), FromSlice(c.b)
		if got := OrCount(a, b); got != c.want {
			t.Errorf("OrCount(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := Union(a, b).Count(); got != c.want {
			t.Errorf("materialized union disagrees on (%v, %v): %d vs %d", c.a, c.b, got, c.want)
		}
	}
}

func TestQuickCountKernelsMatchMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		a, b := &Set{}, &Set{}
		for i := 0; i < rng.Intn(40); i++ {
			a.Add(rng.Intn(192))
		}
		for i := 0; i < rng.Intn(40); i++ {
			b.Add(rng.Intn(192))
		}
		if got, want := AndNotCount(a, b), Subtract(a, b).Count(); got != want {
			t.Fatalf("AndNotCount(%s, %s) = %d, want %d", a, b, got, want)
		}
		if got, want := OrCount(a, b), Union(a, b).Count(); got != want {
			t.Fatalf("OrCount(%s, %s) = %d, want %d", a, b, got, want)
		}
		c := New(0).CopyFrom(a)
		if !c.Equal(a) {
			t.Fatalf("CopyFrom(%s) = %s", a, c)
		}
	}
}
