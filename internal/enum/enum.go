// Package enum enumerates adversaries exhaustively for small systems.
// The unbeatability and conformance experiments quantify over "all runs";
// for small (n, t, rounds, values) the adversary space is finite and this
// package walks all of it, canonicalizing away unobservable differences
// (deliveries to processes that are dead at receipt time).
//
// The enumeration is exposed as a resumable iterator: All yields every
// canonical adversary paired with its offset in the deterministic order,
// and From(offset) resumes mid-stream, so unbounded sweeps can checkpoint
// with nothing but an integer.
//
// The walk generates canonical failure patterns only, so deduplication
// needs no memory of what it has seen: a full pass holds O(1) state
// beyond the adversaries it yields. Every offset is addressable in
// closed form down to the crasher subset — the number of canonical
// patterns of a subset depends only on its size — so a seek skips whole
// subsets arithmetically and walks only the patterns of the one subset
// holding the offset, without materializing them.
//
// Within each failure pattern's block the input vectors follow a
// reflected Gray code over Values (delta order): consecutive adversaries
// differ in exactly one process's initial value. DeltaOrder and DeltaRange
// expose the changed index alongside each adversary so incremental
// consumers (knowledge-graph patch kernels) can rewrite only the state
// that depends on the flipped input; the offset→adversary decode is
// shared with From/Range, so delta traversals checkpoint and tile
// identically to the canonical ones.
package enum

import (
	"fmt"
	"iter"
	"math"
	"math/bits"

	"setconsensus/internal/bitset"
	"setconsensus/internal/model"
)

// Space bounds an exhaustive adversary enumeration.
type Space struct {
	N        int           // number of processes
	T        int           // maximum number of crashes
	MaxRound int           // crash rounds range over 1..MaxRound
	Values   []model.Value // every input vector over this set is produced
}

// maxN bounds the number of processes: the walk packs each crasher's
// delivery set into one 64-bit word.
const maxN = 64

// Validate sanity-checks the space.
func (s Space) Validate() error {
	if s.N < 2 || s.N > maxN || s.T < 0 || s.T > s.N-1 || s.MaxRound < 1 || len(s.Values) == 0 {
		return fmt.Errorf("enum: invalid space %+v", s)
	}
	return nil
}

// Label renders the space's canonical display name, shared by workload
// sources and analysis reports.
func (s Space) Label() string {
	return fmt.Sprintf("space:n=%d,t=%d,r=%d,|v|=%d", s.N, s.T, s.MaxRound, len(s.Values))
}

// CountUpperBound returns a loose upper bound on the number of adversaries
// the space can yield before canonical deduplication (input vectors ×
// failure patterns). It guards tests against accidentally huge spaces.
func (s Space) CountUpperBound() float64 {
	perCrasher := float64(s.MaxRound) * math.Pow(2, float64(s.N-1))
	patterns := 1.0
	choose := 1.0
	for size := 1; size <= s.T; size++ {
		choose = choose * float64(s.N-size+1) / float64(size)
		patterns += choose * math.Pow(perCrasher, float64(size))
	}
	return patterns * math.Pow(float64(len(s.Values)), float64(s.N))
}

// inputCount returns the number of input vectors, len(Values)^N,
// saturating at math.MaxInt.
func (s Space) inputCount() int {
	c := 1
	for i := 0; i < s.N; i++ {
		if c > math.MaxInt/len(s.Values) {
			return math.MaxInt
		}
		c *= len(s.Values)
	}
	return c
}

// All returns a deterministic iterator over every canonically distinct
// adversary in the space, paired with its offset in the enumeration
// order. Two adversaries are canonically identical when they differ only
// in crash-round deliveries to processes that are already dead at receipt
// time (such deliveries are unobservable: dead processes never read).
//
// Deduplication keeps no record of the patterns already yielded: the
// walk generates only the first member of each class — the configuration
// with no delivery to a dead receiver — so a full pass holds O(1) memory
// beyond the adversaries themselves, and each canonical pattern is
// materialized once, for its block.
//
// The iterator requires a valid space; an invalid one yields nothing —
// callers that need the error use Validate or ForEach.
func (s Space) All() iter.Seq2[int, *model.Adversary] { return s.From(0) }

// advSlabSize is how many adversaries share one Inputs/struct slab in
// the enumeration: big enough to amortize allocation to noise, small
// enough that a consumer retaining one adversary pins only a sliver.
const advSlabSize = 64

// advSlab carves adversaries out of block allocations so the
// enumeration costs two allocations per advSlabSize adversaries instead
// of two per adversary. Carved adversaries are independent values; the
// slab is only the backing memory.
type advSlab struct {
	advs   []model.Adversary
	inputs []model.Value
}

func (sl *advSlab) carve(inputs []model.Value, pattern *model.FailurePattern) *model.Adversary {
	n := len(inputs)
	if len(sl.advs) == 0 {
		sl.advs = make([]model.Adversary, advSlabSize)
	}
	if len(sl.inputs) < n {
		sl.inputs = make([]model.Value, n*advSlabSize)
	}
	in := sl.inputs[:n:n]
	sl.inputs = sl.inputs[n:]
	copy(in, inputs)
	adv := &sl.advs[0]
	sl.advs = sl.advs[1:]
	adv.Inputs, adv.Pattern = in, pattern
	return adv
}

// From resumes the enumeration of All at the given offset: it yields the
// suffix beginning with the offset-th canonical adversary, with the same
// offsets All would have paired them with. Recording the last offset seen
// plus one is therefore enough state to pause and resume an unbounded
// sweep.
//
// Seeking to the offset is cheap. Crasher subsets whose offsets all
// precede it are skipped in closed form, by a pattern count that depends
// only on the subset's size. Within the subset holding the offset, whole
// failure-pattern blocks (len(Values)^N consecutive offsets each) are
// skipped without materializing the pattern or its input vectors, and a
// partially consumed block re-enters the input Gray code directly at the
// right vector. A seek therefore costs O(#subsets) plus at most one
// subset's canonical patterns, and allocates nothing per skipped pattern.
func (s Space) From(offset int) iter.Seq2[int, *model.Adversary] {
	return func(yield func(int, *model.Adversary) bool) {
		s.deltaFrom(offset, func(idx int, adv *model.Adversary, _ int) bool {
			return yield(idx, adv)
		})
	}
}

// Delta pairs an adversary with the index of the process whose initial
// value changed relative to the previous adversary of the same traversal.
// Changed is -1 when no single-input relationship holds: at the first
// adversary yielded (including mid-block resume entry points) and at every
// pattern-block boundary, where the failure pattern itself changes.
type Delta struct {
	Adv     *model.Adversary
	Changed int
}

// DeltaOrder resumes the enumeration of All at the given offset exactly
// as From does — same adversaries, same offsets — but additionally
// reports, for each adversary, which process's input changed since the
// previous one. Within a pattern block consecutive adversaries differ in
// exactly one process's initial value (the input vectors follow a
// reflected Gray code over Values), so incremental consumers can patch
// per-process state instead of rebuilding it; Changed = -1 marks the
// points where they must rebuild from scratch.
func (s Space) DeltaOrder(offset int) iter.Seq2[int, Delta] {
	return func(yield func(int, Delta) bool) {
		s.deltaFrom(offset, func(idx int, adv *model.Adversary, changed int) bool {
			return yield(idx, Delta{Adv: adv, Changed: changed})
		})
	}
}

// DeltaRange yields the window [offset, offset+limit) of DeltaOrder, the
// delta-annotated analogue of Range: the same adversaries at the same
// offsets, with the first adversary of the window marked Changed = -1.
// Consecutive DeltaRange windows therefore tile the space byte-identically
// to Range windows while letting workers patch within each window.
func (s Space) DeltaRange(offset, limit int) iter.Seq2[int, Delta] {
	return func(yield func(int, Delta) bool) {
		if limit <= 0 {
			return
		}
		left := limit
		s.deltaFrom(offset, func(idx int, adv *model.Adversary, changed int) bool {
			if !yield(idx, Delta{Adv: adv, Changed: changed}) {
				return false
			}
			left--
			return left > 0
		})
	}
}

// deltaFrom is the shared core of From, DeltaOrder, and DeltaRange: the
// canonical offset-addressed walk, annotated with the changed process
// index (-1 at block starts and resume entry points).
func (s Space) deltaFrom(offset int, yield func(int, *model.Adversary, int) bool) {
	if s.Validate() != nil || offset < 0 {
		return
	}
	block := s.inputCount()
	perSize := s.subsetPatterns()
	var slab advSlab
	idx := 0
	s.forEachSubset(func(crashers []model.Proc) bool {
		// Skip the whole subset when its span of offsets ends at or
		// before the offset.
		if rest := offset - idx; rest > 0 {
			if span := satMul(perSize[len(crashers)], uint64(block)); span <= uint64(rest) {
				idx += int(span)
				return true
			}
		}
		return s.forEachConfig(crashers, func(rounds []int, delivered []uint64) bool {
			if offset-idx >= block {
				idx += block // the whole block precedes the offset
				return true
			}
			pattern := s.pattern(crashers, rounds, delivered)
			start := max(offset-idx, 0)
			cont := true
			s.forEachInputsDeltaFrom(start, func(i int, inputs []model.Value, changed int) bool {
				cont = yield(idx+i, slab.carve(inputs, pattern), changed)
				return cont
			})
			idx += block
			return cont
		})
	})
}

// PatternBlock returns the number of consecutive offsets each canonical
// failure pattern spans in the enumeration order: len(Values)^N. Sharded
// consumers align chunk boundaries to multiples of it so that within a
// chunk every adversary after the first differs from its predecessor in a
// single input value.
func (s Space) PatternBlock() int {
	if s.Validate() != nil {
		return 1
	}
	return s.inputCount()
}

// Count returns the exact number of canonical adversaries All yields:
// Σ_k C(N,k) · (canonical patterns of a size-k subset) · PatternBlock,
// in closed form, without walking. It saturates at math.MaxInt for
// spaces too large to count, and is 0 for an invalid space.
func (s Space) Count() int {
	if s.Validate() != nil {
		return 0
	}
	block := uint64(s.inputCount())
	total, choose := uint64(0), uint64(1) // choose = C(N, k)
	for k, patterns := range s.subsetPatterns() {
		total = satAdd(total, satMul(satMul(choose, patterns), block))
		// C(N, k+1) = C(N, k)·(N−k)/(k+1), exactly: the 128-bit product
		// divides evenly, and every C(N, ·) with N ≤ 64 fits 64 bits.
		hi, lo := bits.Mul64(choose, uint64(s.N-k))
		choose, _ = bits.Div64(hi, lo, uint64(k+1))
	}
	if total > math.MaxInt {
		return math.MaxInt
	}
	return int(total)
}

// Range yields the window [offset, offset+limit) of the enumeration of
// All: at most limit canonical adversaries beginning at the offset-th,
// paired with the same offsets All would have paired them with. It is
// the unit of work of sharded sweeps — a coordinator carves a space
// into consecutive Range windows and hands each to a worker, and the
// windows tile the space exactly: concatenating Range(0, c), Range(c, c),
// ... reproduces All. A window past the end of the space yields nothing;
// a non-positive limit yields nothing.
func (s Space) Range(offset, limit int) iter.Seq2[int, *model.Adversary] {
	return func(yield func(int, *model.Adversary) bool) {
		if limit <= 0 {
			return
		}
		left := limit
		for idx, adv := range s.From(offset) {
			if !yield(idx, adv) {
				return
			}
			if left--; left == 0 {
				return
			}
		}
	}
}

// ForEach calls fn for every canonically distinct adversary in the space,
// in the deterministic order of All, until fn returns false.
func (s Space) ForEach(fn func(*model.Adversary) bool) error {
	if err := s.Validate(); err != nil {
		return err
	}
	for _, adv := range s.All() {
		if !fn(adv) {
			break
		}
	}
	return nil
}

// Adversaries materializes the space. Intended for spaces known small.
func (s Space) Adversaries() ([]*model.Adversary, error) {
	var out []*model.Adversary
	err := s.ForEach(func(a *model.Adversary) bool {
		out = append(out, a)
		return true
	})
	return out, err
}

// forEachSubset calls fn with every crasher subset of size ≤ T, in
// increasing order, each subset before its supersets (depth first: {},
// {0}, {0,1}, …, {1}, {1,2}, …). The slice is reused between calls.
func (s Space) forEachSubset(fn func(crashers []model.Proc) bool) {
	crashers := make([]model.Proc, 0, s.T)
	var rec func(next int) bool
	rec = func(next int) bool {
		if !fn(crashers) {
			return false
		}
		if len(crashers) == s.T {
			return true
		}
		for p := next; p < s.N; p++ {
			crashers = append(crashers, p)
			ok := rec(p + 1)
			crashers = crashers[:len(crashers)-1]
			if !ok {
				return false
			}
		}
		return true
	}
	rec(0)
}

// forEachConfig calls fn with every canonical configuration of a crasher
// subset: rounds[i] is crashers[i]'s crash round and delivered[i] its
// crash-round delivery set as a process bitmask. Both slices are reused
// between calls.
//
// The order is lexicographic in (round₀, delivered₀, round₁, …) with
// rounds ascending from 1 and delivery sets ascending as integers. Two
// configurations are observably equal exactly when they share the rounds
// and differ only in deliveries to receivers dead at receipt time — the
// crashers whose round is ≤ the sender's. Clearing those bits only lowers
// a delivery set, so the first member of each class in this order is the
// one without them, and the walk visits exactly those: a delivery set
// ranges over the submasks of the receivers still alive, and a round is
// passed over when an earlier crasher of the same or a later round
// already delivered to this one.
func (s Space) forEachConfig(crashers []model.Proc, fn func(rounds []int, delivered []uint64) bool) bool {
	k := len(crashers)
	rounds := make([]int, k)
	delivered := make([]uint64, k)
	everyone := ^uint64(0) >> uint(64-s.N)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == k {
			return fn(rounds, delivered)
		}
		self := uint64(1) << uint(crashers[i])
	nextRound:
		for r := 1; r <= s.MaxRound; r++ {
			alive := everyone &^ self
			for j := 0; j < i; j++ {
				if rounds[j] <= r {
					alive &^= 1 << uint(crashers[j])
				}
				if rounds[j] >= r && delivered[j]&self != 0 {
					continue nextRound
				}
			}
			rounds[i] = r
			for d := uint64(0); ; d = ((d | ^alive) + 1) & alive {
				delivered[i] = d
				if !rec(i + 1) {
					return false
				}
				if d == alive {
					break
				}
			}
		}
		return true
	}
	return rec(0)
}

// pattern materializes one configuration of forEachConfig as a failure
// pattern; the delivery sets share one backing array.
func (s Space) pattern(crashers []model.Proc, rounds []int, delivered []uint64) *model.FailurePattern {
	fp := model.NewFailurePattern(s.N)
	words := append([]uint64(nil), delivered...)
	sets := make([]bitset.Set, len(crashers))
	for i, p := range crashers {
		sets[i] = bitset.Wrap(words[i : i+1])
		fp.Crashes[p] = model.Crash{Round: rounds[i], Delivered: &sets[i]}
	}
	return fp
}

// subsetPatterns returns, for every subset size k ≤ T, how many canonical
// configurations forEachConfig yields for one subset of that size. The
// count depends only on k: a crasher of round r may deliver to any of the
// N − S_r processes outside the crashers of round ≤ r (S_r of them, itself
// included), so the count is the sum over round assignments of
// Π 2^(N − S_r). Grouping the assignments by how many crashers each round
// takes turns that sum into a dynamic program over rounds. The counts
// saturate at math.MaxUint64 instead of wrapping, so a space too large to
// walk never skips a wrong span.
func (s Space) subsetPatterns() []uint64 {
	binom := make([][]uint64, s.T+1) // binom[n][c] = C(n, c)
	for n := range binom {
		binom[n] = make([]uint64, n+1)
		binom[n][0], binom[n][n] = 1, 1
		for c := 1; c < n; c++ {
			binom[n][c] = satAdd(binom[n-1][c-1], binom[n-1][c])
		}
	}
	counts := make([]uint64, s.T+1)
	ways := make([]uint64, s.T+1)
	for k := range counts {
		// ways[m]: weighted assignments of the rounds seen so far to m of
		// the k crashers. Giving round r to c more crashers, m in all,
		// picks them among the k−m+c unassigned and lets each deliver to
		// N − m processes.
		clear(ways)
		ways[0] = 1
		for r := 1; r <= s.MaxRound; r++ {
			for m := k; m > 0; m-- {
				for c := 1; c <= m; c++ {
					term := satMul(ways[m-c], binom[k-m+c][c])
					ways[m] = satAdd(ways[m], satMul(term, pow2(c*(s.N-m))))
				}
			}
		}
		counts[k] = ways[k]
	}
	return counts
}

// pow2 returns 2^e, saturating at math.MaxUint64.
func pow2(e int) uint64 {
	if e >= 64 {
		return math.MaxUint64
	}
	return 1 << uint(e)
}

func satAdd(a, b uint64) uint64 {
	sum, carry := bits.Add64(a, b, 0)
	if carry != 0 {
		return math.MaxUint64
	}
	return sum
}

func satMul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	if hi != 0 {
		return math.MaxUint64
	}
	return lo
}

// forEachInputsDeltaFrom enumerates input vectors over s.Values beginning
// at the start-th vector, calling fn with each vector's index within the
// block and the index of the single process whose value differs from the
// previous vector (-1 for the first vector yielded, which has no
// predecessor in this traversal).
//
// The order is the reflected mixed-radix Gray code over base len(Values)
// with process 0 as the most significant digit: consecutive vectors differ
// in exactly one digit, by one position up or down s.Values. The vector at
// index i is decoded directly from the plain base-b expansion a[0..N-1] of
// i: scanning most-significant first with a reflection flag that starts
// clear, digit j is a[j] (flag clear) or b-1-a[j] (flag set), and the flag
// toggles whenever the decoded digit is odd — an odd digit at level j
// means the levels below run through their sub-sequence reversed. Resuming
// mid-block therefore costs O(N), and the flag at each level is the
// digit's current sweep direction.
func (s Space) forEachInputsDeltaFrom(start int, fn func(int, []model.Value, int) bool) bool {
	base := len(s.Values)
	// One backing array for both per-digit tables: this runs once per
	// pattern block, and the enumeration's allocation profile is pinned
	// by benchmarks.
	scratch := make([]int, 2*s.N)
	digits, dirs := scratch[:s.N], scratch[s.N:]
	for i, rem := s.N-1, start; i >= 0; i-- {
		digits[i] = rem % base
		rem /= base
	}
	flip := false
	for j := 0; j < s.N; j++ {
		if flip {
			digits[j] = base - 1 - digits[j]
			dirs[j] = -1
		} else {
			dirs[j] = 1
		}
		if digits[j]&1 == 1 {
			flip = !flip
		}
	}
	inputs := make([]model.Value, s.N)
	for j, d := range digits {
		inputs[j] = s.Values[d]
	}
	changed := -1
	for i := start; ; i++ {
		if !fn(i, inputs, changed) {
			return false
		}
		// Step: move the least significant digit that can advance in its
		// current direction; digits that cannot reverse direction instead.
		// A step changes exactly one digit — that digit's process index is
		// reported as changed. No digit able to move ends the block.
		j := s.N - 1
		for ; j >= 0; j-- {
			if next := digits[j] + dirs[j]; next >= 0 && next < base {
				digits[j] = next
				inputs[j] = s.Values[next]
				break
			}
			dirs[j] = -dirs[j]
		}
		if j < 0 {
			return true
		}
		changed = j
	}
}
