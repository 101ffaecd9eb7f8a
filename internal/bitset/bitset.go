// Package bitset provides a compact dynamic bit set keyed by small
// non-negative integers. It is the kernel under the knowledge substrate:
// every "set of processes" in a view (seen, hidden, crashed, delivered)
// is a Set, so the per-layer classification work in hidden-capacity
// computations is word-parallel.
package bitset

import (
	"math/bits"
	"strconv"
	"strings"
)

const wordBits = 64

// Set is a growable bit set. The zero value is an empty set ready to use.
// Methods with a Set result mutate and return the receiver to allow
// chaining; use Clone first when the original must be preserved.
type Set struct {
	words []uint64
}

// New returns an empty set with capacity preallocated for values in [0, n).
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// FromSlice returns a set holding exactly the given elements.
func FromSlice(elems []int) *Set {
	s := &Set{}
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

// Full returns the set {0, 1, …, n−1}.
func Full(n int) *Set {
	s := New(n)
	for i := 0; i < n; i++ {
		s.Add(i)
	}
	return s
}

// grow extends the set to hold word index word, in one append: a set
// that first meets a large element allocates once instead of once per
// capacity doubling. The append(s, make(...)...) form also keeps grow
// cheap enough for Add and UnionWith to stay inlinable.
func (s *Set) grow(word int) {
	if n := word + 1 - len(s.words); n > 0 {
		s.words = append(s.words, make([]uint64, n)...)
	}
}

// Add inserts i into the set. Negative values are ignored.
func (s *Set) Add(i int) *Set {
	if i < 0 {
		return s
	}
	w := i / wordBits
	s.grow(w)
	s.words[w] |= 1 << uint(i%wordBits)
	return s
}

// Remove deletes i from the set if present.
func (s *Set) Remove(i int) *Set {
	if i < 0 {
		return s
	}
	w := i / wordBits
	if w < len(s.words) {
		s.words[w] &^= 1 << uint(i%wordBits)
	}
	return s
}

// Contains reports whether i is in the set.
func (s *Set) Contains(i int) bool {
	if s == nil || i < 0 {
		return false
	}
	w := i / wordBits
	return w < len(s.words) && s.words[w]&(1<<uint(i%wordBits)) != 0
}

// Count returns the number of elements in the set.
func (s *Set) Count() int {
	if s == nil {
		return 0
	}
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool { return s.Count() == 0 }

// Clone returns an independent copy of the set.
func (s *Set) Clone() *Set {
	if s == nil {
		return &Set{}
	}
	c := &Set{words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// UnionWith adds every element of o to s and returns s.
func (s *Set) UnionWith(o *Set) *Set {
	if o == nil {
		return s
	}
	s.grow(len(o.words) - 1)
	for i, w := range o.words {
		s.words[i] |= w
	}
	return s
}

// IntersectWith removes from s every element not in o and returns s.
func (s *Set) IntersectWith(o *Set) *Set {
	for i := range s.words {
		if o == nil || i >= len(o.words) {
			s.words[i] = 0
		} else {
			s.words[i] &= o.words[i]
		}
	}
	return s
}

// SubtractWith removes every element of o from s and returns s.
func (s *Set) SubtractWith(o *Set) *Set {
	if o == nil {
		return s
	}
	for i := range s.words {
		if i < len(o.words) {
			s.words[i] &^= o.words[i]
		}
	}
	return s
}

// Clear removes every element, keeping the backing storage, and returns
// s. It is the reset step of scratch sets on hot paths: after the first
// few calls a Clear-then-Add cycle allocates nothing.
func (s *Set) Clear() *Set {
	for i := range s.words {
		s.words[i] = 0
	}
	return s
}

// CopyFrom makes s hold exactly the elements of o, reusing s's backing
// array when it is large enough, and returns s. It is the in-place
// counterpart of Clone for scratch buffers on hot paths.
func (s *Set) CopyFrom(o *Set) *Set {
	if o == nil {
		for i := range s.words {
			s.words[i] = 0
		}
		return s
	}
	if cap(s.words) < len(o.words) {
		s.words = make([]uint64, len(o.words))
	}
	s.words = s.words[:len(o.words)]
	copy(s.words, o.words)
	return s
}

// Words returns the backing word slice: bit j of Words()[i] is element
// i*64+j. The slice aliases the set — callers must not grow it, and
// writes through it are writes to the set. It exists so flat-arena
// layouts (internal/knowledge) can run word-parallel kernels without
// copying.
func (s *Set) Words() []uint64 {
	if s == nil {
		return nil
	}
	return s.words
}

// Wrap returns a Set value whose storage is exactly the given word slice,
// aliasing it: mutations of the set write into words. The capacity is
// clipped to len(words), so a mutating method that needs to grow
// reallocates and detaches from the arena rather than appending into a
// shared slab's spare capacity; arena owners should still size words for
// the full element range to keep aliasing writes aliased.
func Wrap(words []uint64) Set { return Set{words: words[:len(words):len(words)]} }

// AndNotCount returns |s \ o| without materializing the difference.
func AndNotCount(s, o *Set) int {
	if s == nil {
		return 0
	}
	n := 0
	for i, w := range s.words {
		if o != nil && i < len(o.words) {
			w &^= o.words[i]
		}
		n += bits.OnesCount64(w)
	}
	return n
}

// OrCount returns |s ∪ o| without materializing the union.
func OrCount(s, o *Set) int {
	a, b := s, o
	if a == nil {
		a = &Set{}
	}
	if b == nil {
		b = &Set{}
	}
	long, short := a.words, b.words
	if len(short) > len(long) {
		long, short = short, long
	}
	n := 0
	for i, w := range short {
		n += bits.OnesCount64(w | long[i])
	}
	for _, w := range long[len(short):] {
		n += bits.OnesCount64(w)
	}
	return n
}

// Union returns a fresh set holding s ∪ o.
func Union(s, o *Set) *Set { return s.Clone().UnionWith(o) }

// Intersect returns a fresh set holding s ∩ o.
func Intersect(s, o *Set) *Set { return s.Clone().IntersectWith(o) }

// Subtract returns a fresh set holding s \ o.
func Subtract(s, o *Set) *Set { return s.Clone().SubtractWith(o) }

// Equal reports whether s and o hold exactly the same elements.
func (s *Set) Equal(o *Set) bool {
	a, b := s, o
	if a == nil {
		a = &Set{}
	}
	if b == nil {
		b = &Set{}
	}
	long, short := a.words, b.words
	if len(short) > len(long) {
		long, short = short, long
	}
	for i, w := range short {
		if w != long[i] {
			return false
		}
	}
	for _, w := range long[len(short):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every element of s is in o.
func (s *Set) SubsetOf(o *Set) bool {
	if s == nil {
		return true
	}
	for i, w := range s.words {
		var ow uint64
		if o != nil && i < len(o.words) {
			ow = o.words[i]
		}
		if w&^ow != 0 {
			return false
		}
	}
	return true
}

// Elems returns the elements in increasing order.
func (s *Set) Elems() []int {
	if s == nil {
		return nil
	}
	out := make([]int, 0, s.Count())
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &^= 1 << uint(b)
		}
	}
	return out
}

// ForEach calls fn for each element in increasing order, stopping early if
// fn returns false.
func (s *Set) ForEach(fn func(i int) bool) {
	if s == nil {
		return
	}
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &^= 1 << uint(b)
		}
	}
}

// Min returns the smallest element and true, or (0, false) when empty.
func (s *Set) Min() (int, bool) {
	if s == nil {
		return 0, false
	}
	for wi, w := range s.words {
		if w != 0 {
			return wi*wordBits + bits.TrailingZeros64(w), true
		}
	}
	return 0, false
}

// String renders the set as "{a, b, c}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(strconv.Itoa(i))
		return true
	})
	b.WriteByte('}')
	return b.String()
}
