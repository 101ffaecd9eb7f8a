package unbeat

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"setconsensus/internal/bitset"
	"setconsensus/internal/enum"
	"setconsensus/internal/govern"
	"setconsensus/internal/knowledge"
	"setconsensus/internal/model"
	"setconsensus/internal/sim"
)

// The bounded protocol-space search complements the Lemma-3 certificates:
// over an exhaustively enumerated adversary space, it tries EVERY decision
// rule that follows a base protocol (Optmin[k] or u-Pmin[k]) except for
// deciding strictly earlier at up to `width` distinct local views, with
// any valid value at each. Because full-information protocols are exactly
// functions of the view, such a rule IS a protocol; if it solved the task
// it would strictly dominate the base protocol. The search verifies that
// every candidate violates the task on some run — i.e. the base protocol
// is unbeatable within this (bounded, but for small n meaningful)
// protocol class.
//
// The search is a staged pipeline:
//
//	compile — every run of the space is executed once and flattened into
//	          interned view-id sequences plus the base protocol's
//	          decisions (Compiler.Add; any graph/run machinery feeds it,
//	          which is how Engine.Analyze drives it through the pooled
//	          Backend.RunInto / knowledge.Builder revive path); workers
//	          compile consecutive windows of the space into segments
//	          (Compiler.NewSegment) that Compiler.Merge appends in
//	          offset order, so the interning order is the sequential
//	          one;
//	shard   — deviation candidates are strided across a worker pool in
//	          canonical enumeration order, each worker folding into
//	          private accumulators merged once (the internal/agg
//	          contract);
//	test    — each candidate is simulated against every compiled run in
//	          per-worker scratch (no per-candidate or per-run
//	          allocations); the first dominating candidate in canonical
//	          order short-circuits the remaining work.
//
// Reports are deterministic regardless of parallelism: counters describe
// either the full enumeration (unbeaten) or the canonical prefix ending
// at the minimal dominating candidate (beaten).

// SearchParams configures the deviation search.
type SearchParams struct {
	Space   enum.Space
	K       int
	T       int
	Uniform bool // check uniform agreement (for u-Pmin conjecture probes)
	Width   int  // maximum number of deviating views (1 or 2)
}

// SearchReport summarizes the search outcome. Every field is
// deterministic in the compiled space alone: parallel and sequential
// searches of one space produce identical reports. When Beaten, the
// Candidates/Pairs counters cover the canonical enumeration prefix up to
// and including the minimal dominating candidate (the witness), not
// whatever subset in-flight workers happened to touch.
type SearchReport struct {
	Runs        int      `json:"runs"`       // adversaries enumerated
	Views       int      `json:"views"`      // distinct pre-decision deviation points
	Candidates  int      `json:"candidates"` // deviation sets tested
	Beaten      bool     `json:"beaten"`     // a dominating deviation exists
	Witness     *Witness `json:"witness,omitempty"`
	PairsPruned int      `json:"pairsPruned"` // width-2 pairs eliminated by the locality rule
	PairsTested int      `json:"pairsTested"`
}

// SearchOptions configures the test stage of a compiled search.
type SearchOptions struct {
	// Parallelism is the worker-pool size; values < 1 mean 1.
	Parallelism int
	// Progress, when non-nil, receives throttled stage snapshots. Calls
	// are serialized; the callback must not block for long.
	Progress func(Progress)
}

// searchRun is one adversary's compiled form: per process, the interned
// view id at each active time up to the base protocol's decision, plus
// the base decision itself.
type searchRun struct {
	adv      *model.Adversary
	seq      [][]int // seq[i][m] = view id, m ≤ decision time (or last active)
	decTime  []int   // base decision time, −1 if none
	decValue []model.Value
	correct  []bool
	present  *bitset.Set // values present in the input vector
}

// Compiler is the compile stage of the search pipeline: it folds one
// executed run at a time into the interned view table and the compiled
// run list. Feed it with Add — the engine does so through its pooled
// run path — then seal it with Compiled. A Compiler is not safe for
// concurrent use. Compilation parallelizes by segments instead: each
// worker fills its own NewSegment over a consecutive window of the
// space, and Merge appends the segments in offset order, reproducing
// the single-compiler interning order exactly.
type Compiler struct {
	p        SearchParams
	horizon  int
	ids      map[string]int
	viewVals []*bitset.Set // per view id: Vals of the view
	viewPre  []bool        // ever occurs strictly before a base decision
	runs     []*searchRun
	fpBuf    []byte // reused fingerprint build buffer (zero-copy interning)

	// prevRun supports delta reuse across consecutive Adds: when the
	// incoming run shares the previous run's failure pattern (by pointer)
	// and differs in at most one process's input — the enumeration's
	// Gray-code delta order makes that the common case — every view that
	// has not seen the changed input has a fingerprint identical to the
	// previous run's view at the same (proc, time), so its interned id is
	// copied instead of recomputed. Only ids already interned are reused,
	// never assigned, so the interning order (and with it deviation
	// ordinals and report determinism) is byte-identical to a cold
	// compile.
	prevRun *searchRun

	// Compiled runs are carved out of block allocations: one compiled
	// space holds thousands of runs whose row lengths are known before
	// filling, so per-run make calls would dominate the compile stage's
	// allocation profile (they did: ~16 allocations per run before the
	// slabs).
	runSlab  []searchRun
	rowSlab  [][]int
	intSlab  []int
	valSlab  []model.Value
	boolSlab []bool
	setSlab  []bitset.Set
	wordSlab []uint64
	presentW int // words per present set, fixed by the space's value range
}

// NewCompiler validates the parameters and returns an empty compiler.
func NewCompiler(p SearchParams) (*Compiler, error) {
	if p.Width < 1 || p.Width > 2 {
		return nil, fmt.Errorf("unbeat: search width must be 1 or 2, got %d", p.Width)
	}
	if err := p.Space.Validate(); err != nil {
		return nil, err
	}
	maxV := 0
	for _, v := range p.Space.Values {
		if v > maxV {
			maxV = v
		}
	}
	return &Compiler{p: p, horizon: p.T/p.K + 1, ids: make(map[string]int, 1<<10), presentW: maxV>>6 + 1}, nil
}

// carve cuts an exact-capacity slice of n elements off a slab,
// reblocking when the slab runs dry. Carved slices are independent
// values; the slab is only the backing memory (the enum.advSlab
// arrangement).
func carve[T any](slab *[]T, n, block int) []T {
	if len(*slab) < n {
		if block < n {
			block = n
		}
		*slab = make([]T, block)
	}
	out := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return out
}

// compileSlabRuns sizes the compile slabs: runs per struct block, and
// the element blocks scaled to cover that many typical runs.
const compileSlabRuns = 128

// Horizon is the knowledge-graph horizon compiled runs must be built to.
func (c *Compiler) Horizon() int { return c.horizon }

// Runs reports how many runs have been compiled so far.
func (c *Compiler) Runs() int { return len(c.runs) }

// Add compiles one run: adv's knowledge graph g (built to Horizon, by
// any construction — the engine feeds revived Builder arenas) and the
// base protocol's decisions on it. Add copies everything it keeps, so g
// may be released and decisions reused immediately after the call.
func (c *Compiler) Add(adv *model.Adversary, g *knowledge.Graph, decisions []*sim.Decision) {
	n := adv.N()
	if len(c.runSlab) == 0 {
		c.runSlab = make([]searchRun, compileSlabRuns)
	}
	sr := &c.runSlab[0]
	c.runSlab = c.runSlab[1:]
	sr.adv = adv
	sr.seq = carve(&c.rowSlab, n, compileSlabRuns*n)
	sr.decTime = carve(&c.intSlab, n, compileSlabRuns*n*(c.horizon+2))
	sr.decValue = carve(&c.valSlab, n, compileSlabRuns*n)
	sr.correct = carve(&c.boolSlab, n, compileSlabRuns*n)
	if len(c.setSlab) == 0 {
		c.setSlab = make([]bitset.Set, compileSlabRuns)
	}
	sr.present = &c.setSlab[0]
	c.setSlab = c.setSlab[1:]
	*sr.present = bitset.Wrap(carve(&c.wordSlab, c.presentW, compileSlabRuns*c.presentW))
	for _, v := range adv.Inputs {
		sr.present.Add(v)
	}
	// Delta reuse (see prevRun): diff this run's inputs against the
	// previous run's when the failure pattern is shared. changed is the
	// single differing process, -1 when the inputs are identical; any
	// wider diff (or a pattern change) disables reuse for this run.
	prev := c.prevRun
	changed, reuse := -1, false
	if prev != nil && prev.adv.Pattern == adv.Pattern && prev.adv.N() == n {
		reuse = true
		for p, v := range adv.Inputs {
			if v != prev.adv.Inputs[p] {
				if changed >= 0 {
					reuse, changed = false, -1
					break
				}
				changed = p
			}
		}
	}
	for i := 0; i < n; i++ {
		if reuse {
			sr.correct[i] = prev.correct[i] // pattern-derived: same pattern, same answer
		} else {
			sr.correct[i] = adv.Pattern.Correct(i)
		}
		sr.decTime[i] = -1
		if i < len(decisions) && decisions[i] != nil {
			sr.decTime[i] = decisions[i].Time
			sr.decValue[i] = decisions[i].Value
		}
		last := sr.decTime[i]
		if last < 0 {
			// Crashed before deciding: views until last active time.
			last = adv.Pattern.CrashRound(i) - 1
			if last > c.horizon {
				last = c.horizon
			}
		}
		var prow []int
		if reuse {
			prow = prev.seq[i]
		}
		row := carve(&c.intSlab, last+1, compileSlabRuns*n*(c.horizon+2))
		for m := 0; m <= last; m++ {
			var id int
			if m < len(prow) && (changed < 0 || !g.Seen(i, m, changed, 0)) {
				// The view has not seen the changed input (or nothing
				// changed): its fingerprint — layers and sender masks are
				// pattern-fixed, and it encodes only the inputs of layer-0
				// processes — matches the previous run's view here, whose
				// id is already interned.
				id = prow[m]
			} else {
				// Interning is the compile hot path: the fingerprint is
				// built into the compiler's reused buffer and looked up
				// zero-copy; only a first-seen view materializes a key
				// string.
				c.fpBuf = g.AppendFingerprint(c.fpBuf[:0], i, m)
				var ok bool
				if id, ok = c.ids[string(c.fpBuf)]; !ok {
					id = len(c.viewVals)
					c.ids[string(c.fpBuf)] = id
					c.viewVals = append(c.viewVals, g.Vals(i, m))
					c.viewPre = append(c.viewPre, false)
				}
			}
			if m < sr.decTime[i] || sr.decTime[i] < 0 {
				c.viewPre[id] = true
			}
			row[m] = id
		}
		sr.seq[i] = row
	}
	c.runs = append(c.runs, sr)
	c.prevRun = sr
}

// NewSegment returns an empty compiler over the same parameters, to
// compile a later window of the space on another goroutine and be
// appended with Merge.
func (c *Compiler) NewSegment() *Compiler {
	return &Compiler{p: c.p, horizon: c.horizon, ids: make(map[string]int, 1<<10), presentW: c.presentW}
}

// Merge appends seg's runs, which must directly follow c's in the
// enumeration order. The segment's views are re-interned in the
// segment's own first-seen order, so a view new to c gets exactly the
// id a single compiler Adding both run lists would have given it, and
// the segment's run rows are rewritten to c's ids in place. Merging the
// segments of consecutive windows in offset order therefore reproduces
// the sequential compile — view ids, deviation ordinals and reports —
// byte for byte. seg must not be used afterwards.
func (c *Compiler) Merge(seg *Compiler) {
	// The segment's keys, by id. They are only needed here, so an
	// unsplit compile never materializes them.
	keys := make([]string, len(seg.viewVals))
	for key, id := range seg.ids {
		keys[id] = key
	}
	remap := make([]int, len(keys))
	for sid, key := range keys {
		id, ok := c.ids[key]
		if !ok {
			id = len(c.viewVals)
			c.ids[key] = id
			c.viewVals = append(c.viewVals, seg.viewVals[sid])
			c.viewPre = append(c.viewPre, false)
		}
		c.viewPre[id] = c.viewPre[id] || seg.viewPre[sid]
		remap[sid] = id
	}
	for _, sr := range seg.runs {
		for _, row := range sr.seq {
			for m, sid := range row {
				row[m] = remap[sid]
			}
		}
	}
	c.runs = append(c.runs, seg.runs...)
	if seg.prevRun != nil {
		c.prevRun = seg.prevRun
	}
}

// Compiled seals the compiler into the shard/test stages' input: the
// deviation-point list in canonical order (view-interning order, value
// ascending within a view), the compiled runs, the per-view occurrence
// sets that let candidate testing touch only the runs a deviation can
// change, and the base protocol's own violation set (normally empty —
// it is the premise of the whole search). The compiler must not be
// Added to afterwards.
func (c *Compiler) Compiled() *Compiled {
	cs := &Compiled{p: c.p, runs: c.runs, viewVals: c.viewVals}
	// Deviation points: views that occur strictly before a base decision
	// (deciding there is a strict improvement), with any value the view
	// has seen (anything else instantly violates Validity).
	for id, pre := range c.viewPre {
		if !pre {
			continue
		}
		c.viewVals[id].ForEach(func(v int) bool {
			cs.devs = append(cs.devs, Deviation{View: id, Value: v})
			return true
		})
	}
	// occurs[view] = runs whose interned sequences contain the view. The
	// test stage only reads the sets of deviation views, so only those
	// are built, each sized for every run up front.
	cs.occurs = make([]bitset.Set, len(c.viewVals))
	for id, pre := range c.viewPre {
		if pre {
			cs.occurs[id] = *bitset.New(len(c.runs))
		}
	}
	for ri, sr := range c.runs {
		for _, row := range sr.seq {
			for _, id := range row {
				if c.viewPre[id] {
					cs.occurs[id].Add(ri)
				}
			}
		}
	}
	// baseBad = runs the base protocol itself violates. A candidate is
	// the base rule verbatim on every run outside its views' occurrence
	// sets, so these runs stay violated for every candidate that does
	// not touch them.
	sc := &testScratch{}
	for ri, sr := range c.runs {
		if bad, _ := cs.violates(nil, sr, sc); bad {
			cs.baseBad.Add(ri)
		}
	}
	return cs
}

// Compiled is the sealed output of the compile stage, ready for
// (repeated) candidate testing.
type Compiled struct {
	p        SearchParams
	runs     []*searchRun
	viewVals []*bitset.Set
	devs     []Deviation
	occurs   []bitset.Set // [view] → runs containing the view; built for deviation views only
	baseBad  bitset.Set   // runs violated by the base protocol itself
}

// testScratch is the per-worker scratch of the test stage: the candidate
// under test (at most two deviations), the decided-value set of the run
// being simulated, and the relevant-run set of a pair candidate. One
// scratch serves every candidate a worker tests; nothing in the hot
// loop allocates.
type testScratch struct {
	devs     [2]Deviation
	decided  bitset.Set
	relevant bitset.Set
}

// violates simulates a candidate (deviation list, distinct views) on one
// run and reports (taskViolated, strictWinObserved).
func (cs *Compiled) violates(devs []Deviation, sr *searchRun, sc *testScratch) (bool, bool) {
	decided := sc.decided.Clear()
	strict := false
	undecidedCorrect := false
	for i := range sr.seq {
		dTime, dVal := sr.decTime[i], sr.decValue[i]
		final := dTime
		finalVal := dVal
		// A candidate is a function of the view: whenever a deviating
		// view occurs while the process is undecided, it decides the
		// deviation's value — strictly early if before the base
		// decision, as a value override if at it.
	seq:
		for m, id := range sr.seq[i] {
			for _, d := range devs {
				if d.View != id {
					continue
				}
				final, finalVal = m, d.Value
				if dTime < 0 || m < dTime {
					strict = true
				}
				break seq
			}
		}
		if final < 0 {
			if sr.correct[i] {
				undecidedCorrect = true
			}
			continue
		}
		if !sr.present.Contains(finalVal) {
			return true, strict // Validity broken
		}
		if cs.p.Uniform || sr.correct[i] {
			decided.Add(finalVal)
		}
	}
	if undecidedCorrect {
		return true, strict // Decision broken
	}
	return decided.Count() > cs.p.K, strict
}

// testCandidate returns true if the candidate solves the task on every
// run while strictly beating the base protocol somewhere. Only the runs
// in relevant — those containing one of the candidate's views — are
// simulated: on every other run the candidate is the base protocol
// verbatim, so it violates there iff the base does (baseBad, normally
// empty), and can never win strictly there.
func (cs *Compiled) testCandidate(devs []Deviation, relevant *bitset.Set, sc *testScratch) bool {
	if !cs.baseBad.SubsetOf(relevant) {
		return false // an untouched run already violates under the base rule
	}
	strictAnywhere := false
	ok := true
	relevant.ForEach(func(ri int) bool {
		bad, strict := cs.violates(devs, cs.runs[ri], sc)
		if bad {
			ok = false
			return false
		}
		strictAnywhere = strictAnywhere || strict
		return true
	})
	return ok && strictAnywhere
}

// witness builds the typed witness of a dominating candidate: its
// deviations plus the first enumerated run on which it strictly wins.
func (cs *Compiled) witness(devs []Deviation) *Witness {
	w := &Witness{Deviations: append([]Deviation(nil), devs...)}
	sc := &testScratch{}
	for _, sr := range cs.runs {
		if _, strict := cs.violates(devs, sr, sc); strict {
			w.AdvFingerprint = advFingerprintHex(sr.adv)
			w.Adversary = sr.adv.String()
			break
		}
	}
	return w
}

// noWinner is the atomic sentinel for "no dominating candidate found".
const noWinner = int64(math.MaxInt64)

// bestMin lowers best to ord if ord is smaller — the lock-free minimal-
// ordinal merge that keeps the reported winner deterministic under
// parallel testing: a candidate is only skipped when its ordinal exceeds
// the current best, so every ordinal below the final winner is always
// tested, and the final best is exactly the canonical first winner.
func bestMin(best *atomic.Int64, ord int64) {
	for {
		cur := best.Load()
		if ord >= cur || best.CompareAndSwap(cur, ord) {
			return
		}
	}
}

// Shards runs body once per worker with strided work assignment and
// funnels out the first error; a body error cancels the derived context
// of every other worker. Parallelism ≤ 1 runs inline — the sequential
// search is the parallel search with one shard, not a separate code
// path. It is the worker-pool primitive of the analysis pipeline,
// shared by the search stages and the engine's certificate families.
func Shards(ctx context.Context, workers int, body func(ctx context.Context, w int) error) error {
	if workers <= 1 {
		return body(ctx, 0)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Candidate tests execute protocol decision rules, so a
			// panicking rule is isolated here: converted into a typed
			// analysis error instead of crashing the process, with the
			// shared cancel draining the other shards.
			err := func() (err error) {
				defer govern.Capture("unbeat: analysis worker", &err)
				return body(ctx, w)
			}()
			if err != nil {
				errOnce.Do(func() { firstErr = err })
				cancel()
			}
		}(w)
	}
	wg.Wait()
	return firstErr
}

// ProgressSink throttles and serializes Progress callbacks for a staged
// analysis — the one implementation behind the search stages and the
// engine's certificate families. A nil sink (no progress consumer)
// costs one pointer check per unit. Snapshots are monotone within a
// stage: the emitted Done is re-read under the serializing mutex and
// never goes backwards, regardless of worker interleaving.
type ProgressSink struct {
	mu       sync.Mutex
	fn       func(Progress)
	stage    string
	total    int
	done     atomic.Int64
	lastEmit int
}

const progressEvery = 64

// NewProgressSink wraps fn; a nil fn yields a nil (no-op) sink.
func NewProgressSink(fn func(Progress)) *ProgressSink {
	if fn == nil {
		return nil
	}
	return &ProgressSink{fn: fn}
}

// Stage opens a new stage and emits its zero snapshot. Stages are
// sequential (barriers between them), so no worker bumps concurrently
// with a Stage call.
func (p *ProgressSink) Stage(stage string, total int) {
	if p == nil {
		return
	}
	p.stage = stage
	p.total = total
	p.done.Store(0)
	p.lastEmit = -1
	p.emit()
}

// Bump records one processed unit, emitting every progressEvery units.
// Safe for concurrent use by stage workers.
func (p *ProgressSink) Bump() {
	if p == nil {
		return
	}
	if d := p.done.Add(1); d%progressEvery == 0 || int(d) == p.total {
		p.emit()
	}
}

// Finish closes an unknown-total stage (Stage total 0): the final count
// becomes the total and the closing snapshot is emitted. Known-total
// stages close themselves when the last unit bumps.
func (p *ProgressSink) Finish() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	done := int(p.done.Load())
	p.total = done
	p.lastEmit = done
	p.fn(Progress{Stage: p.stage, Done: done, Total: done})
}

// emit re-reads the counter under the mutex so a preempted worker can
// never publish a snapshot older than one already delivered.
func (p *ProgressSink) emit() {
	p.mu.Lock()
	defer p.mu.Unlock()
	done := int(p.done.Load())
	if done <= p.lastEmit {
		return
	}
	p.lastEmit = done
	p.fn(Progress{Stage: p.stage, Done: done, Total: p.total})
}

// pairPrunable applies the width-2 locality rule: deviation B can only
// repair A's violated runs if B's view occurs in every one of them.
func (cs *Compiled) pairPrunable(singleViolated []bitset.Set, a, b Deviation, ai, bi int) bool {
	return !singleViolated[ai].SubsetOf(&cs.occurs[b.View]) ||
		!singleViolated[bi].SubsetOf(&cs.occurs[a.View])
}

// Search runs the shard/test stages over the compiled space: width-1
// candidates first (their violation sets feed the width-2 locality
// prune), then all distinct-view pairs. Candidates are strided across
// the workers in canonical order; each worker owns private scratch and
// counters merged once when its stride is drained. The moment a
// dominating candidate is found its ordinal is published, in-flight
// workers skip every larger ordinal, and the stages after the current
// one are cancelled through the derived context — early termination with
// a deterministic (canonical-first) witness.
func (cs *Compiled) Search(ctx context.Context, opts SearchOptions) (*SearchReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	workers := opts.Parallelism
	if workers < 1 {
		workers = 1
	}
	prog := NewProgressSink(opts.Progress)
	report := &SearchReport{Runs: len(cs.runs), Views: len(cs.devs)}
	nd := len(cs.devs)

	// Stage: width-1. Runs to completion even when a winner appears
	// mid-stage (skipping ordinals above it): the violation sets of ALL
	// single deviations are the width-2 prune input, and a full stage
	// keeps the counters deterministic. Each candidate simulates only
	// the runs its view occurs in — elsewhere it is the base rule
	// verbatim, so those runs contribute exactly the base's own
	// violations (baseBad) and no strict win.
	singleViolated := make([]bitset.Set, nd) // [di] written only by di's worker
	var best atomic.Int64
	best.Store(noWinner)
	prog.Stage("width-1", nd)
	err := Shards(ctx, workers, func(ctx context.Context, w int) error {
		sc := &testScratch{}
		for di := w; di < nd; di += workers {
			if err := ctx.Err(); err != nil {
				return err
			}
			if int64(di) > best.Load() {
				continue // a smaller winner already exists; sets past it are never read
			}
			d := cs.devs[di]
			sc.devs[0] = d
			vio := &singleViolated[di]
			strictAnywhere := false
			cs.occurs[d.View].ForEach(func(ri int) bool {
				bad, strict := cs.violates(sc.devs[:1], cs.runs[ri], sc)
				if bad {
					vio.Add(ri)
				}
				strictAnywhere = strictAnywhere || strict
				return true
			})
			if !cs.baseBad.Empty() {
				vio.UnionWith(sc.relevant.CopyFrom(&cs.baseBad).SubtractWith(&cs.occurs[d.View]))
			}
			if strictAnywhere && vio.Empty() {
				bestMin(&best, int64(di))
			}
			prog.Bump()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if b := best.Load(); b != noWinner {
		report.Beaten = true
		report.Candidates = int(b) + 1 // canonical prefix through the winner
		report.Witness = cs.witness(cs.devs[b : b+1])
		return report, nil
	}
	report.Candidates = nd
	if cs.p.Width == 1 {
		return report, nil
	}

	// Stage: width-2 over all distinct-view pairs, in canonical ordinal
	// order.
	totalPairs := 0
	for ai := 0; ai < nd; ai++ {
		for bi := ai + 1; bi < nd; bi++ {
			if cs.devs[ai].View != cs.devs[bi].View {
				totalPairs++
			}
		}
	}
	type pairAcc struct{ pruned, tested int }
	accs := make([]pairAcc, workers)
	best.Store(noWinner)
	prog.Stage("width-2", totalPairs)
	err = Shards(ctx, workers, func(ctx context.Context, w int) error {
		sc := &testScratch{}
		acc := &accs[w]
		ord := -1
		for ai := 0; ai < nd; ai++ {
			for bi := ai + 1; bi < nd; bi++ {
				a, b := cs.devs[ai], cs.devs[bi]
				if a.View == b.View {
					continue // one decision per view
				}
				ord++
				if ord%workers != w {
					continue
				}
				if err := ctx.Err(); err != nil {
					return err
				}
				if int64(ord) > best.Load() {
					continue // a smaller winner already exists
				}
				if cs.pairPrunable(singleViolated, a, b, ai, bi) {
					acc.pruned++
					prog.Bump()
					continue
				}
				acc.tested++
				sc.devs[0], sc.devs[1] = a, b
				relevant := sc.relevant.CopyFrom(&cs.occurs[a.View]).UnionWith(&cs.occurs[b.View])
				if cs.testCandidate(sc.devs[:2], relevant, sc) {
					bestMin(&best, int64(ord))
				}
				prog.Bump()
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if b := best.Load(); b != noWinner {
		// Deterministic counters for the beaten case: re-derive the
		// prune/test split of the canonical prefix below the winner (the
		// prune predicate reads only the completed width-1 sets, so this
		// is a pure recount, no run simulation).
		report.Beaten = true
		cs.recountPrefix(report, singleViolated, int(b))
		return report, nil
	}
	for _, acc := range accs {
		report.PairsPruned += acc.pruned
		report.PairsTested += acc.tested
	}
	report.Candidates = nd + report.PairsTested
	return report, nil
}

// recountPrefix fills the beaten-case width-2 counters and witness: the
// prune/test split over pair ordinals strictly below the winner, plus
// the winner itself (tested by definition).
func (cs *Compiled) recountPrefix(report *SearchReport, singleViolated []bitset.Set, winner int) {
	nd := len(cs.devs)
	ord := -1
	for ai := 0; ai < nd; ai++ {
		for bi := ai + 1; bi < nd; bi++ {
			a, b := cs.devs[ai], cs.devs[bi]
			if a.View == b.View {
				continue
			}
			ord++
			if ord == winner {
				report.PairsTested++
				report.Candidates = nd + report.PairsTested
				report.Witness = cs.witness([]Deviation{a, b})
				return
			}
			if cs.pairPrunable(singleViolated, a, b, ai, bi) {
				report.PairsPruned++
			} else {
				report.PairsTested++
			}
		}
	}
}

// Search enumerates the space, compiles all runs of the base protocol
// through a recycled Builder arena and pooled run scratch, and tests
// every ≤Width-view early-deviation rule sequentially. It is the
// single-call convenience form of the pipeline; Engine.Analyze runs the
// same stages with the engine's backend, worker pool, and streaming
// progress.
func Search(ctx context.Context, base sim.Protocol, p SearchParams) (*SearchReport, error) {
	c, err := NewCompiler(p)
	if err != nil {
		return nil, err
	}
	builder := knowledge.NewBuilder()
	var (
		sc   sim.Scratch
		res  sim.Result
		cerr error
	)
	err = p.Space.ForEach(func(adv *model.Adversary) bool {
		if cerr = ctx.Err(); cerr != nil {
			return false
		}
		g := builder.Build(adv, c.Horizon())
		sim.RunWithGraphInto(base, g, &sc, &res)
		c.Add(adv, g, res.Decisions)
		g.Release()
		return true
	})
	if cerr != nil {
		return nil, cerr
	}
	if err != nil {
		return nil, err
	}
	return c.Compiled().Search(ctx, SearchOptions{Parallelism: 1})
}
