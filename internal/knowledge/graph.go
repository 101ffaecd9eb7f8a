// Package knowledge implements the epistemic substrate of the paper: the
// communication graph Gα of an adversary, the full-information views
// Gα(i,m), and the derived classifications — seen, guaranteed crashed,
// hidden — together with Vals/Min/low-high, the hidden capacity HC⟨i,m⟩
// of Definition 2, known-failure counts, and the persistence predicate of
// Definition 3.
//
// All protocols in this repository are full-information protocols
// (following Coan's reduction, §2.1), so a protocol is exactly a decision
// rule over the queries exposed here.
//
// # Layout
//
// A Graph is arena-backed: every layer bitset of every view and every
// per-node value set lives in one flat []uint64 slab, and the derived
// tables (knownCrash, hiddenCount, hc, failures known, minima) are flat
// []int slabs indexed by (m,i,·) stride arithmetic. Construction runs
// word-parallel — the per-round "dead before ρ" and per-crasher
// non-delivery sets are hoisted once per graph, and the hidden tables are
// union popcounts — so building a graph costs a handful of allocations
// regardless of n and horizon. The naive implementation it replaced is
// retained in reference_test.go and the two are cross-checked node-for-node
// over randomized adversaries in equiv_test.go.
package knowledge

import (
	"encoding/binary"
	"fmt"
	"sync"

	"setconsensus/internal/bitset"
	"setconsensus/internal/model"
)

// NoKnownCrash is the sentinel "i has no proof j ever crashed".
const NoKnownCrash = model.NoCrash

// View is the full-information view Gα(i,m): for each layer ℓ ≤ m, the set
// of processes j whose node ⟨j,ℓ⟩ is seen by ⟨i,m⟩ (i.e. a Lamport message
// chain ⟨j,ℓ⟩ → ⟨i,m⟩ exists). Views of crashed processes are frozen at
// their last active time: their Layers slice simply stays short.
type View struct {
	Proc model.Proc
	Time int
	// Layers[ℓ] = processes whose layer-ℓ node is seen. For a process
	// crashed in round c, len(Layers) == c (layers 0..c−1 only). The sets
	// alias the graph's arena and must not be mutated.
	Layers []*bitset.Set
}

// SeenAt reports whether ⟨j,ℓ⟩ is seen in this view.
func (v *View) SeenAt(j model.Proc, l int) bool {
	return l >= 0 && l < len(v.Layers) && v.Layers[l].Contains(j)
}

// storage is the recyclable backing memory of one Graph: the bitset
// arena, the set-header and view slabs, and one []int slab partitioned
// into the derived tables. Builder.Build reuses a released storage when
// its capacity fits.
type storage struct {
	arena []uint64
	sets  []bitset.Set
	ptrs  []*bitset.Set
	views []View
	ints  []int
	// senders is the lazily-built fingerprint sender-mask slab; it rides
	// along in storage so fingerprint-heavy loops (view interning)
	// recycle it with everything else.
	senders []uint64
}

// Graph holds the communication graph of one adversary together with every
// process's view at every time up to Horizon, plus the per-node
// guaranteed-crash knowledge. It is immutable after construction and safe
// for concurrent readers.
type Graph struct {
	Adv     *model.Adversary
	Horizon int

	n  int // processes
	w  int // uint64 words per process set
	wv int // uint64 words per value set

	store storage
	owner *Builder // set when built by a Builder; enables Release

	// valsOff is the arena offset of the value-set region: the value set
	// of node (m,i) occupies wv words at valsOff + node(m,i)*wv.
	valsOff int

	// Flat derived tables, all indexed through node(m,i) = m*n + i:
	knownCrash  []int         // [node*n + j] = earliest provable crash round of j, or NoKnownCrash
	hiddenCount []int         // [node*(Horizon+1) + l] = #hidden at layer l, l ≤ m
	hc          []int         // [node] = HC⟨i,m⟩ (Definition 2)
	fails       []int         // [node] = #processes provably crashed (d of Definition 3)
	minVal      []model.Value // [node] = Min⟨i,m⟩, NoKnownCrash when Vals is empty
	cr          []int         // [j] = crash round of j (model.NoCrash if correct), hoisted off the pattern map

	// sendersOnce guards the lazy build of store.senders —
	// senders[(ρ*n+h)*w : +w] = {j : Delivered(j,h,ρ)} — which only
	// Fingerprint needs (sweeps never pay for it).
	sendersOnce sync.Once
}

// node maps (i,m) to its flat table index, panicking on out-of-range
// coordinates: the old nested slices crashed on bad indices, and the
// stride arithmetic must not quietly alias another node's data instead.
// The panic body lives in badNode so node itself stays within the
// inlining budget — it runs on every graph query, and a call frame per
// bounds check is measurable across a sweep.
func (g *Graph) node(i model.Proc, m int) int {
	// Unsigned compares fold each "negative or too large" pair into one
	// branch, and the panic value renders itself lazily: both keep this
	// under the inlining budget, where a fmt.Sprintf call would not.
	if uint(i) >= uint(g.n) || uint(m) > uint(g.Horizon) {
		panic(&nodeError{i, m, g.n, g.Horizon})
	}
	return m*g.n + i
}

// nodeError is the panic value of an out-of-range node query; the
// message is built only when the panic is printed or inspected.
type nodeError struct{ i, m, n, horizon int }

func (e *nodeError) Error() string {
	return fmt.Sprintf("knowledge: node ⟨%d,%d⟩ outside %d processes × horizon %d", e.i, e.m, e.n, e.horizon)
}

// proc bounds-checks a process argument j the same way.
func (g *Graph) proc(j model.Proc) model.Proc {
	if uint(j) >= uint(g.n) {
		panic(&procError{j, g.n})
	}
	return j
}

// procError is the panic value of an out-of-range process argument.
type procError struct{ j, n int }

func (e *procError) Error() string {
	return fmt.Sprintf("knowledge: process %d outside 0..%d", e.j, e.n-1)
}

// New computes the communication graph and all views of adv up to time
// horizon (inclusive). The per-build scratch comes from a package-level
// pool; the graph's own storage is freshly allocated and never recycled,
// so graphs from New may be retained indefinitely (results and caches
// do). Loops that build and drop many graphs should use a Builder.
func New(adv *model.Adversary, horizon int) *Graph {
	sc := scratchPool.Get().(*buildScratch)
	g := build(adv, horizon, sc, nil)
	scratchPool.Put(sc)
	return g
}

// View returns the view of process i at time m. It panics if m exceeds the
// horizon: that is a programming error in the caller, not a run condition.
func (g *Graph) View(i model.Proc, m int) *View {
	return &g.store.views[g.node(i, m)]
}

// Seen reports whether ⟨j,ℓ⟩ is seen by ⟨i,m⟩.
func (g *Graph) Seen(i model.Proc, m int, j model.Proc, l int) bool {
	return g.View(i, m).SeenAt(j, l)
}

// SeenSet returns the set of processes whose layer-ℓ node is seen by
// ⟨i,m⟩ (a defensive copy). Hot paths iterate with ForEachSeen instead.
func (g *Graph) SeenSet(i model.Proc, m, l int) *bitset.Set {
	v := g.View(i, m)
	if l < 0 || l >= len(v.Layers) {
		return bitset.New(g.n)
	}
	return v.Layers[l].Clone()
}

// ForEachSeen calls fn for every process whose layer-ℓ node is seen by
// ⟨i,m⟩, in increasing order, stopping early if fn returns false. It is
// the allocation-free form of SeenSet(i, m, l).ForEach(fn).
func (g *Graph) ForEachSeen(i model.Proc, m, l int, fn func(j model.Proc) bool) {
	v := g.View(i, m)
	if l < 0 || l >= len(v.Layers) {
		return
	}
	v.Layers[l].ForEach(fn)
}

// KnownCrashRound returns the earliest round ρ such that ⟨i,m⟩ can prove j
// crashed in a round ≤ ρ, or NoKnownCrash.
func (g *Graph) KnownCrashRound(i model.Proc, m int, j model.Proc) int {
	return g.knownCrash[g.node(i, m)*g.n+g.proc(j)]
}

// GuaranteedCrashed reports whether ⟨j,ℓ⟩ is guaranteed crashed at ⟨i,m⟩:
// i has proof at time m that j crashed before time ℓ (in a round ≤ ℓ).
func (g *Graph) GuaranteedCrashed(i model.Proc, m int, j model.Proc, l int) bool {
	return g.KnownCrashRound(i, m, j) <= l
}

// Hidden reports whether ⟨j,ℓ⟩ is hidden from ⟨i,m⟩: neither seen nor
// guaranteed crashed.
func (g *Graph) Hidden(i model.Proc, m int, j model.Proc, l int) bool {
	return !g.Seen(i, m, j, l) && !g.GuaranteedCrashed(i, m, j, l)
}

// HiddenSet returns the processes j with ⟨j,ℓ⟩ hidden from ⟨i,m⟩.
func (g *Graph) HiddenSet(i model.Proc, m, l int) *bitset.Set {
	out := bitset.New(g.n)
	for j := 0; j < g.n; j++ {
		if g.Hidden(i, m, j, l) {
			out.Add(j)
		}
	}
	return out
}

// HiddenCount returns |HiddenSet(i,m,ℓ)| from the precomputed table.
func (g *Graph) HiddenCount(i model.Proc, m, l int) int {
	if l < 0 || l > m {
		panic(fmt.Sprintf("knowledge: hidden count of layer %d at ⟨%d,%d⟩", l, i, m))
	}
	return g.hiddenCount[g.node(i, m)*(g.Horizon+1)+l]
}

// HiddenCapacity returns HC⟨i,m⟩ of Definition 2: the maximum c such that
// every layer ℓ ≤ m holds at least c nodes hidden from ⟨i,m⟩ — that is,
// the minimum over layers of the per-layer hidden count.
func (g *Graph) HiddenCapacity(i model.Proc, m int) int {
	return g.hc[g.node(i, m)]
}

// HiddenCapacityWitnesses returns, for each layer ℓ ≤ m, a set of exactly
// HC⟨i,m⟩ hidden witnesses at that layer (the i_b^ℓ of Definition 2),
// chosen as the lowest-numbered hidden processes.
func (g *Graph) HiddenCapacityWitnesses(i model.Proc, m int) [][]model.Proc {
	hc := g.HiddenCapacity(i, m)
	out := make([][]model.Proc, m+1)
	for l := 0; l <= m; l++ {
		hs := g.HiddenSet(i, m, l).Elems()
		out[l] = hs[:hc]
	}
	return out
}

// FailuresKnown returns the number of distinct processes that ⟨i,m⟩ can
// prove to have crashed (the d of Definition 3), from the precomputed
// table.
func (g *Graph) FailuresKnown(i model.Proc, m int) int {
	return g.fails[g.node(i, m)]
}

// valsWords returns the arena-backed value-set words of node (i,m).
func (g *Graph) valsWords(i model.Proc, m int) []uint64 {
	off := g.valsOff + g.node(i, m)*g.wv
	return g.store.arena[off : off+g.wv]
}

// valsContains reports v ∈ Vals⟨i,m⟩ without allocating.
func (g *Graph) valsContains(i model.Proc, m int, v model.Value) bool {
	if v < 0 || v >= g.wv*64 {
		return false
	}
	return g.valsWords(i, m)[v>>6]&(1<<uint(v&63)) != 0
}

// Vals returns the set of initial values v such that Ki∃v holds at ⟨i,m⟩:
// the values of the layer-0 nodes seen by ⟨i,m⟩ (Definition 5). The set
// is an independent copy of the precomputed table.
func (g *Graph) Vals(i model.Proc, m int) *bitset.Set {
	s := bitset.Wrap(append([]uint64(nil), g.valsWords(i, m)...))
	return &s
}

// Min returns Min⟨i,m⟩, the minimal value i has seen by time m. Every view
// contains at least the process's own initial node, so Min is total.
func (g *Graph) Min(i model.Proc, m int) model.Value {
	v := g.minVal[g.node(i, m)]
	if v == NoKnownCrash {
		panic(fmt.Sprintf("knowledge: empty Vals at ⟨%d,%d⟩", i, m))
	}
	return v
}

// Low reports whether i is low at time m for parameter k: Min⟨i,m⟩ < k.
func (g *Graph) Low(i model.Proc, m, k int) bool { return g.Min(i, m) < k }

// LastSeen returns the maximum ℓ such that ⟨j,ℓ⟩ is seen by ⟨i,m⟩, or −1
// if no node of j is seen at all.
func (g *Graph) LastSeen(i model.Proc, m int, j model.Proc) int {
	v := g.View(i, m)
	for l := len(v.Layers) - 1; l >= 0; l-- {
		if v.Layers[l].Contains(j) {
			return l
		}
	}
	return -1
}

// CrashRound returns j's crash round under the graph's adversary, or
// model.NoCrash if j never crashes — the pattern map lookup hoisted into
// a flat table at build time, for decision rules running once per
// (node, sweep adversary).
func (g *Graph) CrashRound(j model.Proc) int { return g.cr[g.proc(j)] }

// Active reports whether i is still active (has not crashed) in round m
// under the graph's adversary — Pattern.Active off the hoisted table.
func (g *Graph) Active(i model.Proc, m int) bool { return g.cr[g.proc(i)] > m }

// Persists implements Definition 3: whether i knows at time m that value v
// will persist, given the a-priori crash bound t. The second disjunct is
// vacuously true once i knows of at least t failures. All queries run on
// the precomputed tables; nothing allocates.
func (g *Graph) Persists(i model.Proc, m int, v model.Value, t int) bool {
	if m > 0 && g.cr[i] > m && g.valsContains(i, m-1, v) {
		return true
	}
	need := t - g.FailuresKnown(i, m)
	if need <= 0 {
		return true
	}
	if m == 0 {
		return false
	}
	count := 0
	g.ForEachSeen(i, m, m-1, func(j model.Proc) bool {
		if g.valsContains(j, m-1, v) {
			count++
		}
		return count < need
	})
	return count >= need
}

// buildSenders fills the lazily-constructed per-(h,ρ) sender masks that
// Fingerprint encodes. Sweeps never call Fingerprint and never pay this;
// the slab reuses recycled storage capacity when a Builder provides it.
func (g *Graph) buildSenders() {
	pat := g.Adv.Pattern
	need := (g.Horizon + 1) * g.n * g.w
	if prev := cap(g.store.senders); prev < need {
		g.store.senders = make([]uint64, need)
		if g.owner != nil {
			g.owner.account(int64(cap(g.store.senders)-prev) * 8)
		}
	} else {
		g.store.senders = g.store.senders[:need]
		for i := range g.store.senders {
			g.store.senders[i] = 0
		}
	}
	for rho := 1; rho <= g.Horizon; rho++ {
		for h := 0; h < g.n; h++ {
			row := g.store.senders[(rho*g.n+h)*g.w:][:g.w]
			for j := 0; j < g.n; j++ {
				if pat.Delivered(j, h, rho) {
					row[j>>6] |= 1 << uint(j&63)
				}
			}
		}
	}
}

// fpBufPool recycles fingerprint build buffers across calls.
var fpBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// Fingerprint returns a canonical encoding of the view Gα(i,m) — its node
// set, the in-neighbourhood of every non-initial node, and the initial
// values labelling layer 0. Two nodes across (possibly different)
// adversaries over the same number of processes have equal local states
// in the full-information protocol iff their fingerprints are equal.
// (The in-neighbourhoods determine the edge set of the view: whenever
// ⟨h,ρ⟩ is in a view, all of h's round-ρ senders are too.)
//
// The encoding is compact binary — varint header plus raw bitset words —
// built in one pooled buffer; it replaced a fmt-rendered decimal string
// whose construction dominated view-interning workloads. The bytes are
// an opaque key: compare and hash them, do not parse them.
func (g *Graph) Fingerprint(i model.Proc, m int) string {
	bp := fpBufPool.Get().(*[]byte)
	b := g.AppendFingerprint((*bp)[:0], i, m)
	s := string(b)
	*bp = b
	fpBufPool.Put(bp)
	return s
}

// AppendFingerprint appends the Fingerprint encoding of ⟨i,m⟩ to b and
// returns the extended slice — the allocation-free form for interning
// loops, which look the bytes up in a map[string]T via the compiler's
// zero-copy string(b) conversion and materialize a key only on a miss.
// The view-interning compile stage of the unbeatability search calls
// this once per (run, node); with Fingerprint it paid a string
// allocation per call whether or not the view was already interned.
func (g *Graph) AppendFingerprint(b []byte, i model.Proc, m int) []byte {
	v := g.View(i, m)
	g.sendersOnce.Do(g.buildSenders)

	var tmp [binary.MaxVarintLen64]byte
	putU := func(x uint64) {
		b = append(b, tmp[:binary.PutUvarint(tmp[:], x)]...)
	}
	putWords := func(words []uint64) {
		for _, w := range words {
			binary.LittleEndian.PutUint64(tmp[:8], w)
			b = append(b, tmp[:8]...)
		}
	}
	putU(uint64(i))
	putU(uint64(m))
	putU(uint64(len(v.Layers)))
	layer0 := v.Layers[0]
	putWords(layer0.Words())
	layer0.ForEach(func(j int) bool {
		b = append(b, tmp[:binary.PutVarint(tmp[:], int64(g.Adv.Inputs[j]))]...)
		return true
	})
	for l := 1; l < len(v.Layers); l++ {
		putWords(v.Layers[l].Words())
		v.Layers[l].ForEach(func(h int) bool {
			putWords(g.store.senders[(l*g.n+h)*g.w:][:g.w])
			return true
		})
	}
	return b
}
