package setconsensus

import (
	"fmt"
	"iter"
	"math/rand"

	"setconsensus/internal/model"
)

// Source is the workload side of the public API: a restartable,
// deterministic stream of adversaries. Where protocols are selected by
// name in a Registry, workloads are selected by name in a
// WorkloadRegistry and flow into Engine.SweepSource as Sources, so
// exhaustive or unbounded adversary spaces never have to be materialized
// into a slice.
//
// Implementations must be deterministic: two calls to Seq yield the same
// adversaries in the same order. Count reports the exact stream length
// when it is known without enumeration — exhaustive spaces, whose
// canonical size is only discovered by walking them, report unknown.
type Source interface {
	// Label names the workload for summaries and tables.
	Label() string
	// Seq returns a fresh iterator over the workload. Every call restarts
	// from the beginning.
	Seq() iter.Seq[*Adversary]
	// Count returns the number of adversaries the stream yields, when
	// known without enumeration.
	Count() (n int, known bool)
}

// RangeSeq is the optional Source refinement behind offset-scoped
// sweeps: SeqRange yields the window [offset, offset+limit) of the
// stream without the caller enumerating (and discarding) the prefix.
// SpaceSource implements it by resuming the enumeration mid-stream
// (enum.Space.Range), SliceSource by reslicing; RangeSource falls back
// to skip-by-enumeration for sources that do not implement it. The
// windows must tile: concatenating SeqRange(0, c), SeqRange(c, c), ...
// reproduces Seq exactly.
type RangeSeq interface {
	SeqRange(offset, limit int) iter.Seq[*Adversary]
}

// PatternBlocked is the optional Source refinement behind delta-aware
// chunking: PatternBlock reports the stride (in stream offsets) at which
// the source's failure pattern changes. Within a stride every adversary
// after the first differs from its predecessor in a single input value
// (the enumeration's Gray-code delta order), so sweep executors align
// worker chunk boundaries to multiples of it — full knowledge-graph
// builds then happen only where the pattern changes, and every other
// adversary rides the builder's patch kernel. Sources with no such
// structure report 1 (or simply do not implement the interface).
type PatternBlocked interface {
	PatternBlock() int
}

// rangeSource scopes another source to an offset window — the work unit
// of a coordinated sweep: each worker sweeps one range of the shared
// space and the coordinator merges the partial Summaries.
type rangeSource struct {
	src           Source
	offset, limit int
}

// RangeSource yields the window [offset, offset+limit) of src — at most
// limit adversaries beginning with the offset-th. Sources implementing
// RangeSeq (exhaustive spaces, slices) enter mid-stream; anything else
// pays an enumerate-and-discard skip of the prefix, which is still
// correct because every Source is deterministic and restartable.
// Negative offsets and limits clamp to zero (an empty window, not an
// error: a coordinator may legitimately issue a range past the end of a
// space whose true size it has not discovered yet).
func RangeSource(src Source, offset, limit int) Source {
	if offset < 0 {
		offset = 0
	}
	if limit < 0 {
		limit = 0
	}
	return &rangeSource{src: src, offset: offset, limit: limit}
}

func (s *rangeSource) Label() string {
	return fmt.Sprintf("%s@%d+%d", s.src.Label(), s.offset, s.limit)
}

func (s *rangeSource) Count() (int, bool) {
	c, ok := s.src.Count()
	if !ok {
		// The window cannot be sized without enumerating, but it is still
		// bounded by the limit; CountUpperBound carries that bound.
		return 0, false
	}
	c -= s.offset
	if c < 0 {
		c = 0
	}
	if c > s.limit {
		c = s.limit
	}
	return c, true
}

// CountUpperBound bounds the window for admission controllers: never
// more than the limit, and never more than whatever bound the
// underlying source reports. This is what lets a range-scoped job over
// a space far beyond a server's MaxSpaceSize budget pass admission —
// the job only ever sweeps its window.
func (s *rangeSource) CountUpperBound() float64 {
	ub := float64(s.limit)
	if b, ok := s.src.(interface{ CountUpperBound() float64 }); ok {
		if sub := b.CountUpperBound(); sub < ub {
			ub = sub
		}
	}
	return ub
}

// PatternBlock forwards the underlying source's pattern-block stride
// when this window starts on a block boundary — a coordinator carving a
// space into block-aligned ranges keeps delta-aware chunking in every
// shard. A window starting mid-block reports 1: its local offsets are
// shifted against the stride, so alignment would be wrong.
func (s *rangeSource) PatternBlock() int {
	if pb, ok := s.src.(PatternBlocked); ok {
		if b := pb.PatternBlock(); b > 1 && s.offset%b == 0 {
			return b
		}
	}
	return 1
}

func (s *rangeSource) Seq() iter.Seq[*Adversary] {
	if r, ok := s.src.(RangeSeq); ok {
		return r.SeqRange(s.offset, s.limit)
	}
	return func(yield func(*Adversary) bool) {
		if s.limit == 0 {
			return
		}
		skip, left := s.offset, s.limit
		for a := range s.src.Seq() {
			if skip > 0 {
				skip--
				continue
			}
			if !yield(a) {
				return
			}
			if left--; left == 0 {
				return
			}
		}
	}
}

// sliceSource adapts a materialized slice.
type sliceSource struct {
	label string
	advs  []*Adversary
}

// SliceSource wraps an already materialized adversary slice as a Source.
// It is the bridge from the slice-based Sweep world: Sweep itself runs on
// top of it.
func SliceSource(advs ...*Adversary) Source {
	return &sliceSource{label: fmt.Sprintf("slice[%d]", len(advs)), advs: advs}
}

func (s *sliceSource) Label() string      { return s.label }
func (s *sliceSource) Count() (int, bool) { return len(s.advs), true }
func (s *sliceSource) SeqRange(offset, limit int) iter.Seq[*Adversary] {
	lo, hi := offset, offset+limit
	if lo > len(s.advs) {
		lo = len(s.advs)
	}
	if hi > len(s.advs) || hi < 0 { // hi < 0: offset+limit overflowed
		hi = len(s.advs)
	}
	return func(yield func(*Adversary) bool) {
		for _, a := range s.advs[lo:hi] {
			if !yield(a) {
				return
			}
		}
	}
}
func (s *sliceSource) Seq() iter.Seq[*Adversary] {
	return func(yield func(*Adversary) bool) {
		for _, a := range s.advs {
			if !yield(a) {
				return
			}
		}
	}
}

// spaceSource streams an exhaustive enum.Space without materializing it.
// The enumeration holds O(1) dedup state and is offset-addressable:
// SeqRange windows seek past whole crasher subsets in closed form, so a
// window deep in the space costs about as much as one at its start.
type spaceSource struct{ space Space }

// SpaceSource wraps an exhaustive adversary space as a Source. The
// stream is the canonical enumeration of Space.All; its length is not
// reported up front, so Count reports unknown and
// Space.CountUpperBound remains the guard against accidentally huge
// spaces.
func SpaceSource(s Space) (Source, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &spaceSource{space: s}, nil
}

func (s *spaceSource) Label() string      { return s.space.Label() }
func (s *spaceSource) Count() (int, bool) { return 0, false }

// CountUpperBound reports the space's pre-deduplication size bound
// (Space.CountUpperBound). Admission controllers — the job service's
// max-space budget — discover it through the optional
//
//	interface{ CountUpperBound() float64 }
//
// so unknown-count sources can still be bounded before a single
// adversary is enumerated.
func (s *spaceSource) CountUpperBound() float64 { return s.space.CountUpperBound() }

// PatternBlock reports the space's pattern-block stride, len(Values)^N:
// the enumeration emits each canonical failure pattern's input vectors
// as that many consecutive offsets, in Gray-code delta order.
func (s *spaceSource) PatternBlock() int { return s.space.PatternBlock() }

// SeqRange resumes the canonical enumeration at offset and yields at
// most limit adversaries (enum.Space.Range) — the RangeSeq refinement
// that lets coordinated sweeps shard one exhaustive space into offset
// windows without each worker walking the prefix.
func (s *spaceSource) SeqRange(offset, limit int) iter.Seq[*Adversary] {
	return func(yield func(*Adversary) bool) {
		for _, a := range s.space.Range(offset, limit) {
			if !yield(a) {
				return
			}
		}
	}
}

func (s *spaceSource) Seq() iter.Seq[*Adversary] {
	return func(yield func(*Adversary) bool) {
		for _, a := range s.space.All() {
			if !yield(a) {
				return
			}
		}
	}
}

// randomSource samples seeded random adversaries; every Seq call
// re-derives the generator from the seed, keeping the stream restartable.
type randomSource struct {
	seed  int64
	count int
	p     RandomParams
}

// RandomSource yields count seeded random adversaries drawn from p
// (uniform inputs, crash count, crash rounds, and delivery subsets). The
// stream is deterministic in the seed and restartable. Like SpaceSource,
// invalid parameters are rejected here, at construction — model.Random
// panics on them, and a panic mid-sweep is unrecoverable. The process
// count is bounded by model.MaxProcs and values by maxValue, as for
// every other workload.
func RandomSource(seed int64, count int, p RandomParams) (Source, error) {
	if p.N < 2 || p.N > model.MaxProcs || p.T < 0 || p.T > p.N-1 ||
		p.MaxValue < 0 || p.MaxValue > maxValue || p.MaxRound < 1 || count < 0 {
		return nil, fmt.Errorf("setconsensus: invalid random source (n=%d t=%d maxv=%d maxr=%d count=%d)",
			p.N, p.T, p.MaxValue, p.MaxRound, count)
	}
	return &randomSource{seed: seed, count: count, p: p}, nil
}

func (s *randomSource) Label() string {
	return fmt.Sprintf("random:n=%d,t=%d,count=%d,seed=%d", s.p.N, s.p.T, s.count, s.seed)
}
func (s *randomSource) Count() (int, bool) { return s.count, true }
func (s *randomSource) Seq() iter.Seq[*Adversary] {
	return func(yield func(*Adversary) bool) {
		rng := rand.New(rand.NewSource(s.seed))
		for i := 0; i < s.count; i++ {
			if !yield(model.Random(rng, s.p)) {
				return
			}
		}
	}
}

// limitSource truncates another source.
type limitSource struct {
	src Source
	n   int
}

// LimitSource yields at most n adversaries of src — the standard way to
// bound an exhaustive space to a budget. Negative limits clamp to zero.
func LimitSource(src Source, n int) Source {
	if n < 0 {
		n = 0
	}
	return &limitSource{src: src, n: n}
}

func (s *limitSource) Label() string { return fmt.Sprintf("%s[:%d]", s.src.Label(), s.n) }
func (s *limitSource) Count() (int, bool) {
	// The underlying stream may be shorter than the limit; without a
	// known count the limit is only an upper bound.
	c, ok := s.src.Count()
	if !ok {
		return 0, false
	}
	if c < s.n {
		return c, true
	}
	return s.n, true
}

// PatternBlock forwards the underlying stride: truncation keeps the
// stream aligned (it always starts at offset 0).
func (s *limitSource) PatternBlock() int {
	if pb, ok := s.src.(PatternBlocked); ok {
		return pb.PatternBlock()
	}
	return 1
}

func (s *limitSource) Seq() iter.Seq[*Adversary] {
	return func(yield func(*Adversary) bool) {
		// Check the budget before pulling: producing the element past the
		// limit can be expensive (a space walks duplicate patterns to
		// reach its next canonical adversary) just to be discarded.
		left := s.n
		if left == 0 {
			return
		}
		for a := range s.src.Seq() {
			if !yield(a) {
				return
			}
			if left--; left == 0 {
				return
			}
		}
	}
}

// concatSource chains sources back to back.
type concatSource struct{ srcs []Source }

// ConcatSources chains several workloads into one stream, in order.
func ConcatSources(srcs ...Source) Source {
	return &concatSource{srcs: srcs}
}

func (s *concatSource) Label() string {
	label := ""
	for i, src := range s.srcs {
		if i > 0 {
			label += "+"
		}
		label += src.Label()
	}
	if label == "" {
		return "empty"
	}
	return label
}
func (s *concatSource) Count() (int, bool) {
	total := 0
	for _, src := range s.srcs {
		c, ok := src.Count()
		if !ok {
			return 0, false
		}
		total += c
	}
	return total, true
}
func (s *concatSource) Seq() iter.Seq[*Adversary] {
	return func(yield func(*Adversary) bool) {
		for _, src := range s.srcs {
			for a := range src.Seq() {
				if !yield(a) {
					return
				}
			}
		}
	}
}

// funcSource adapts a raw iterator.
type funcSource struct {
	label string
	count int
	seq   iter.Seq[*Adversary]
}

// FuncSource adapts a raw iterator as a Source for custom workloads.
// Pass count < 0 when the stream length is unknown. The iterator must be
// restartable and deterministic, like every Source.
func FuncSource(label string, count int, seq iter.Seq[*Adversary]) Source {
	return &funcSource{label: label, count: count, seq: seq}
}

func (s *funcSource) Label() string { return s.label }
func (s *funcSource) Count() (int, bool) {
	if s.count < 0 {
		return 0, false
	}
	return s.count, true
}
func (s *funcSource) Seq() iter.Seq[*Adversary] { return s.seq }
