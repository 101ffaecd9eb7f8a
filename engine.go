package setconsensus

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"setconsensus/internal/agg"
	"setconsensus/internal/govern"
	"setconsensus/internal/knowledge"
	"setconsensus/internal/model"
)

// Engine is the context-aware entry point to every execution backend. It
// resolves protocols by name through a Registry, runs them on the
// configured Backend, shares and caches knowledge graphs, and batches
// whole protocol × adversary sweeps over a worker pool.
//
//	eng := setconsensus.New(setconsensus.WithDegree(2), setconsensus.WithCrashBound(3))
//	res, err := eng.Run(ctx, "optmin", adv)
//	results, err := eng.Sweep(ctx, []string{"optmin", "upmin", "floodmin"}, advs)
//
// Workloads too large to materialize stream through Engine.SweepSource,
// which shards a Source across the same worker pool and folds results
// into a constant-memory Summary.
//
// # Recycle contract
//
// The aggregating path (SweepSource) is allocation-free per run, which
// rests on three reuse rules:
//
//   - RunBuffer: the Result a Backend.RunInto call returns aliases the
//     buffer — the engine folds it into the per-worker accumulators and
//     never lets it escape. Anything that retains Results (Run, Sweep,
//     the stream variants) goes through Backend.Run instead.
//   - Knowledge graphs: each aggregating worker rebuilds graphs in one
//     reused Builder arena and releases them as soon as the adversary's
//     runs are folded; consecutive adversaries sharing a failure pattern
//     patch or revive the previous arena. The graph cache serves only
//     the Result-retaining paths, so recycling never applies to it.
//   - Summary shards: each worker folds into private agg.Acc
//     accumulators and merges them into the Aggregator exactly once,
//     when its shard is drained (Summary.Merge is the public form of
//     the same contract). Nothing a worker retains outlives the merge.
type Engine struct {
	params   EngineParams
	reg      *Registry
	analyses *AnalysisRegistry
	backend  Backend
	err      error // construction error, surfaced by every call

	// gov, when set, meters the byte capacity of everything the engine
	// recycles (builder arenas, run-kit slabs, sweep chunks) and gates
	// retention: while the governor sheds, release paths free buffers to
	// the GC instead of pooling them. nil means ungoverned.
	gov ResourceGovernor

	// kitMu/kitFree recycle the per-worker aggregation state (RunBuffer,
	// knowledge Builder) across SweepSource calls, so repeated sweeps on
	// one engine pay no per-sweep warm-up allocations. An explicit
	// bounded freelist instead of a sync.Pool: the governor's account
	// must see every buffer enter and leave, and sync.Pool's GC shedding
	// would strand accounted bytes it silently dropped.
	kitMu   sync.Mutex
	kitFree []*runKit

	// chunkMu/chunkFree recycle the feeder's sweepChunk arrays, bounded
	// the same way; chunkBytes is the engine's receipt of every chunk
	// byte currently accounted to the governor (pooled or in flight), so
	// Close can return the remainder even for chunks a panic dropped.
	chunkMu    sync.Mutex
	chunkFree  []*sweepChunk
	chunkBytes atomic.Int64

	// statBuilt/statRevived/statPatched accumulate the builder counts
	// harvested when a worker returns its kit — the engine-wide "graphs
	// rebuilt vs revived vs delta-patched" observability counters behind
	// Stats. They move on the recycling path (aggregating sweeps and
	// analysis compiles); graphs cached for Result-retaining calls are
	// counted by CachedGraphs instead.
	statBuilt   atomic.Int64
	statRevived atomic.Int64
	statPatched atomic.Int64

	// Pool hit-rate counters: a hit is a checkout served from the
	// freelist, a miss a fresh allocation. statKit* meters the
	// per-worker runKit pool (RunBuffer + builder arena — the expensive
	// warm-up state), statChunk* the feeder's sweepChunk pool. While the
	// governor sheds, release paths drop buffers instead of repooling
	// them, so a falling hit rate is the observable symptom of sweeps
	// running over the soft memory ceiling.
	statKitHit    atomic.Int64
	statKitMiss   atomic.Int64
	statChunkHit  atomic.Int64
	statChunkMiss atomic.Int64

	mu         sync.Mutex
	graphs     map[graphKey]*knowledge.Graph
	graphOrder []graphKey // FIFO eviction
	fps        map[*model.Adversary]string
	fpOrder    []*model.Adversary // FIFO eviction, same bound as graphs
	protos     map[protoKey]protoEntry
	protoOrder []protoKey // FIFO eviction, bounded by protoCacheBound
}

// protoKey identifies a constructed protocol instance: same registry ref,
// same parameters, same (stateless) decision rule.
type protoKey struct {
	ref string
	p   Params
}

// protoEntry caches the outcome of ProtocolSpec.New for one key: the
// shared instance and its runtime name, or the construction error. The
// oracle backend consumes proto/err, the compact backends only the name.
type protoEntry struct {
	proto Protocol
	name  string
	err   error
}

// protoCacheBound bounds the protocol-instance cache. Keys vary only in
// (ref, n, t, k), so workloads hit a handful of entries; the bound just
// keeps pathological parameter sweeps from growing the map forever.
const protoCacheBound = 512

// insertBounded adds key→val to a FIFO-bounded cache, evicting oldest
// entries until the bound holds. It is the single home of the eviction
// invariant for all three engine caches (graphs, fingerprints,
// protocols): bound ≤ 0 disables insertion outright rather than evicting
// forever, and an existing key is left in place. Eviction copies the
// order slice down and zeroes the vacated tail slot — re-slicing the
// front off (order = order[1:]) would keep every evicted key reachable
// through the backing array, pinning adversaries and graph keys for the
// life of the engine. Callers hold e.mu.
func insertBounded[K comparable, V any](m map[K]V, order *[]K, key K, val V, bound int) {
	if bound <= 0 {
		return
	}
	if _, ok := m[key]; ok {
		return
	}
	for len(*order) >= bound {
		delete(m, (*order)[0])
		n := copy(*order, (*order)[1:])
		var zero K
		(*order)[n] = zero
		*order = (*order)[:n]
	}
	m[key] = val
	*order = append(*order, key)
}

// graphKey identifies a cached knowledge graph by the adversary's
// canonical fingerprint — not its pointer — so structurally equal
// adversaries built by different calls share one cached graph.
type graphKey struct {
	fingerprint string
	horizon     int
}

// New builds an Engine from the defaults plus the given options. Invalid
// configurations are not lost: every Run/Sweep on a misconfigured engine
// returns the validation error.
func New(opts ...Option) *Engine {
	cfg := engineConfig{params: DefaultEngineParams(), reg: DefaultRegistry(), analyses: DefaultAnalyses()}
	for _, o := range opts {
		o(&cfg)
	}
	return newEngine(cfg)
}

// NewEngine is the params-first constructor: it builds an Engine from a
// fully specified EngineParams and surfaces out-of-range values as an
// error immediately, instead of deferring them to the first Run/Sweep
// the way New's option form does. Long-running callers (the job service,
// anything that validates configuration at startup) should prefer it;
// the functional Options remain thin wrappers over the same struct.
// Additional options (registry overrides, field tweaks) apply on top of
// p before validation.
func NewEngine(p EngineParams, opts ...Option) (*Engine, error) {
	cfg := engineConfig{params: p, reg: DefaultRegistry(), analyses: DefaultAnalyses()}
	for _, o := range opts {
		o(&cfg)
	}
	e := newEngine(cfg)
	if e.err != nil {
		return nil, e.err
	}
	return e, nil
}

// newEngine is the shared construction path behind New and NewEngine.
func newEngine(cfg engineConfig) *Engine {
	e := &Engine{
		params:   cfg.params,
		reg:      cfg.reg,
		analyses: cfg.analyses,
		gov:      cfg.gov,
		graphs:   make(map[graphKey]*knowledge.Graph),
		fps:      make(map[*model.Adversary]string),
		protos:   make(map[protoKey]protoEntry),
	}
	if cfg.reg == nil {
		e.err = fmt.Errorf("engine: nil registry")
		return e
	}
	if cfg.analyses == nil {
		e.err = fmt.Errorf("engine: nil analysis registry")
		return e
	}
	if err := cfg.params.Validate(); err != nil {
		e.err = err
		return e
	}
	e.backend, e.err = backendFor(cfg.params.Backend)
	return e
}

// Params returns the engine's validated configuration.
func (e *Engine) Params() EngineParams { return e.params }

// Registry returns the registry the engine resolves protocol names in.
func (e *Engine) Registry() *Registry { return e.reg }

// runParams completes the per-run protocol parameters: n comes from the
// adversary, t and k from the engine configuration (t = n−1 when unset,
// the adversary's own failure count under PatternCrashBound).
func (e *Engine) runParams(adv *model.Adversary) (Params, error) {
	if adv == nil {
		return Params{}, fmt.Errorf("engine: nil adversary")
	}
	t := e.params.T
	switch {
	case t == PatternCrashBound:
		t = adv.Pattern.NumFailures()
	case t < 0:
		t = adv.N() - 1
	}
	p := Params{N: adv.N(), T: t, K: e.params.K}
	if err := p.Validate(); err != nil {
		return Params{}, err
	}
	return p, nil
}

// horizonFor picks the simulation horizon for a set of protocols on one
// parameterization: the engine override if set, otherwise the largest
// registered worst-case decision time.
func (e *Engine) horizonFor(specs []*ProtocolSpec, p Params) int {
	if e.params.Horizon > 0 {
		return e.params.Horizon
	}
	h := 0
	for _, s := range specs {
		if wc := s.WorstCaseTime(p); wc > h {
			h = wc
		}
	}
	return h
}

// advString returns a lazily-memoized renderer of adv.String, shared by
// every run of one adversary in a sweep: the string is built at most
// once per adversary, and only when a Result that carries it is
// actually materialized.
func advString(adv *Adversary) func() string {
	var s string
	return func() string {
		if s == "" {
			s = adv.String()
		}
		return s
	}
}

// fingerprintFor memoizes Adversary.Fingerprint by pointer identity:
// even with the compact binary encoding (varints + delivery-mask words,
// hashed once by the cache map instead of the old fmt-rendered string),
// deriving the key walks the whole failure pattern, and repeated
// Run/Sweep calls overwhelmingly reuse the same adversary value.
// Streamed sources yield fresh pointers and never hit, but their miss
// cost (one map insert + eviction under a lock held for nanoseconds) is
// noise next to the fingerprint computation itself, which a miss pays
// either way. Bounded FIFO like the graph cache.
func (e *Engine) fingerprintFor(adv *model.Adversary) string {
	e.mu.Lock()
	if fp, ok := e.fps[adv]; ok {
		e.mu.Unlock()
		return fp
	}
	e.mu.Unlock()
	fp := adv.Fingerprint()
	e.mu.Lock()
	defer e.mu.Unlock()
	insertBounded(e.fps, &e.fpOrder, adv, fp, e.params.GraphCache)
	return fp
}

// graphFor returns the knowledge graph of adv at horizon, from the cache
// when possible. Graphs are immutable after construction, so sharing is
// safe across goroutines.
func (e *Engine) graphFor(adv *model.Adversary, horizon int) *knowledge.Graph {
	if e.params.GraphCache == 0 {
		return knowledge.New(adv, horizon)
	}
	key := graphKey{e.fingerprintFor(adv), horizon}
	e.mu.Lock()
	if g, ok := e.graphs[key]; ok {
		e.mu.Unlock()
		return g
	}
	e.mu.Unlock()
	g := knowledge.New(adv, horizon)
	e.mu.Lock()
	defer e.mu.Unlock()
	if cached, ok := e.graphs[key]; ok {
		return cached // another goroutine won the race; keep one copy
	}
	insertBounded(e.graphs, &e.graphOrder, key, g, e.params.GraphCache)
	return g
}

// protoFor resolves the shared protocol instance and runtime name for
// (ref, p), constructing and caching on first use. Protocol instances
// are pure decision rules (sim.Protocol's contract), so one instance
// serves every worker concurrently; the cache turns a per-run
// construct-and-format into a map hit.
func (e *Engine) protoFor(ref string, spec *ProtocolSpec, p Params) protoEntry {
	key := protoKey{ref: ref, p: p}
	e.mu.Lock()
	if ent, ok := e.protos[key]; ok {
		e.mu.Unlock()
		return ent
	}
	e.mu.Unlock()
	ent := protoEntry{name: spec.Name}
	if proto, err := spec.New(p); err == nil {
		ent.proto, ent.name = proto, proto.Name()
	} else {
		ent.err = err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if cached, ok := e.protos[key]; ok {
		return cached
	}
	insertBounded(e.protos, &e.protoOrder, key, ent, protoCacheBound)
	return ent
}

// CachedGraphs reports how many knowledge graphs the engine currently
// holds.
func (e *Engine) CachedGraphs() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.graphs)
}

// EngineStats is a point-in-time snapshot of an engine's observability
// counters — the measurement feed behind the job service's expvar
// surface. GraphsRebuilt, GraphsRevived, and GraphsPatched count full
// knowledge-graph builds, same-pattern revives (value layer refilled),
// and delta patches (only the value rows touched by a single changed
// input rewritten) on the arena-recycling path (aggregating sweeps and
// analysis compiles); CachedGraphs is the cache population of the
// Result-retaining paths (Run, Sweep, the stream variants).
// The pool hit-rate pairs meter the two freelists behind aggregating
// sweeps: RunKitHits/RunKitMisses count per-worker runKit (RunBuffer +
// builder arena) checkouts served warm from the pool versus freshly
// allocated, and ChunkHits/ChunkMisses the same for the feeder's
// sweepChunk arrays. A steady sweep's hit rate converges to ~1; misses
// growing mid-sweep mean the governor is shedding pooled buffers over
// the soft memory ceiling.
type EngineStats struct {
	GraphsRebuilt int64 `json:"graphsRebuilt"`
	GraphsRevived int64 `json:"graphsRevived"`
	GraphsPatched int64 `json:"graphsPatched"`
	CachedGraphs  int   `json:"cachedGraphs"`
	RunKitHits    int64 `json:"runKitHits"`
	RunKitMisses  int64 `json:"runKitMisses"`
	ChunkHits     int64 `json:"chunkHits"`
	ChunkMisses   int64 `json:"chunkMisses"`
}

// Stats snapshots the engine's counters. Worker-local builder counts
// fold in when a sweep or analysis returns its kit, so a snapshot taken
// mid-sweep may trail the in-flight work by up to one worker shard.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		GraphsRebuilt: e.statBuilt.Load(),
		GraphsRevived: e.statRevived.Load(),
		GraphsPatched: e.statPatched.Load(),
		CachedGraphs:  e.CachedGraphs(),
		RunKitHits:    e.statKitHit.Load(),
		RunKitMisses:  e.statKitMiss.Load(),
		ChunkHits:     e.statChunkHit.Load(),
		ChunkMisses:   e.statChunkMiss.Load(),
	}
}

// Run resolves ref in the registry and executes it against adv on the
// configured backend.
func (e *Engine) Run(ctx context.Context, ref string, adv *Adversary) (*Result, error) {
	if e.err != nil {
		return nil, e.err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	spec, err := e.reg.Lookup(ref)
	if err != nil {
		return nil, err
	}
	p, err := e.runParams(adv)
	if err != nil {
		return nil, err
	}
	var g *knowledge.Graph
	if e.backend.NeedsGraph() {
		g = e.graphFor(adv, e.horizonFor([]*ProtocolSpec{spec}, p))
	}
	ent := e.protoFor(ref, spec, p)
	return e.backend.Run(ctx, newRunRequest(ref, spec, ent, p, adv, advString(adv), g))
}

// newRunRequest is the single place a protoEntry is wired into a
// RunRequest, shared by the single-run and sweep paths.
func newRunRequest(ref string, spec *ProtocolSpec, ent protoEntry, p Params, adv *Adversary, advStr func() string, g *knowledge.Graph) *RunRequest {
	return &RunRequest{
		Ref: ref, Spec: spec,
		Proto: ent.proto, ProtoErr: ent.err, Name: ent.name,
		Params: p, Adv: adv, AdvStr: advStr, Graph: g,
	}
}

// Sweep runs every named protocol against every adversary and returns
// the results in deterministic order: adversary-major, protocol-minor
// (results[a*len(refs)+p]). Adversaries are distributed over a worker
// pool of the configured parallelism; within one adversary all protocols
// share a single knowledge graph. The first error (including context
// cancellation) aborts the sweep.
//
// Empty input handling is asymmetric by design: refs name the experiment
// and must be non-empty (an error), while advs is the workload and may
// legitimately be empty — the sweep returns an empty, non-nil slice and
// no error.
func (e *Engine) Sweep(ctx context.Context, refs []string, advs []*Adversary) ([]*Result, error) {
	results := make([]*Result, len(refs)*len(advs))
	err := e.sweep(ctx, refs, SliceSource(advs...), func(advIdx, refIdx int, r *Result) {
		results[advIdx*len(refs)+refIdx] = r
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// SweepStream is Sweep with streaming delivery: emit is called once per
// finished run, in completion order, from a single goroutine at a time.
// Cancelling ctx aborts the stream promptly and returns ctx.Err().
func (e *Engine) SweepStream(ctx context.Context, refs []string, advs []*Adversary, emit func(*Result)) error {
	return e.SweepSourceStream(ctx, refs, SliceSource(advs...), emit)
}

// SweepSource streams every adversary of src through every named
// protocol and folds the results online into a Summary. The source is
// sharded across the worker pool in deterministic chunks and never
// materialized: memory is bounded by the Summary, the in-flight chunks,
// and whatever the source itself retains (an exhaustive SpaceSource
// retains nothing between patterns) — never by the number of results. Per adversary, all protocols share one knowledge graph, as
// in Sweep.
//
// This is the allocation-free sweep variant: every run goes through the
// pooled Backend.RunInto path, each worker folds its shard into private
// accumulators, and the shards merge into the Summary once per worker —
// there is no per-run aggregator lock, so throughput scales with
// Parallelism.
func (e *Engine) SweepSource(ctx context.Context, refs []string, src Source) (*Summary, error) {
	return e.SweepSourceProgress(ctx, refs, src, 0, nil)
}

// SweepSourceStream is SweepSource with per-result delivery instead of
// aggregation: emit is called once per finished run, in completion
// order, from a single goroutine at a time. Emitted Results are fresh
// (emit may retain them), so this path pays the per-run allocations the
// aggregating SweepSource avoids.
func (e *Engine) SweepSourceStream(ctx context.Context, refs []string, src Source, emit func(*Result)) error {
	if src == nil {
		return fmt.Errorf("engine: nil source")
	}
	var mu sync.Mutex
	return e.sweep(ctx, refs, src, func(_, _ int, r *Result) {
		mu.Lock()
		defer mu.Unlock()
		emit(r)
	})
}

// sourceChunk bounds how many adversaries a worker claims at once from a
// streamed source. Chunking amortizes channel handoffs on huge spaces
// without starving workers on small ones.
const sourceChunk = 32

// chunkSizeFor picks the shard size: small known workloads go one
// adversary at a time (maximum parallelism), large or unknown ones in
// fixed chunks. Degenerate counts fall back to the streaming chunk
// size: a Source whose Count lies (reports known with count ≤ 0 yet
// yields adversaries) or a clamped-to-zero worker total must degrade to
// the unknown-count behavior, not divide by zero or starve the pool.
//
// block, when > 1, is the source's pattern-block stride (PatternBlocked):
// the enumeration changes failure pattern exactly at multiples of it, so
// the chunk size is aligned to keep every chunk boundary on a block
// boundary — a worker full-builds there anyway. A misaligned chunk would
// instead start mid-block, paying a spurious full build where the
// previous chunk's worker could have patched.
func chunkSizeFor(count int, known bool, workers, block int) int {
	c := sourceChunk
	if known && count > 0 {
		if workers < 1 {
			workers = 1
		}
		c = count / (workers * 4)
		if c < 1 {
			c = 1
		}
		if c > sourceChunk {
			c = sourceChunk
		}
	}
	return alignChunk(c, block)
}

// alignChunk aligns a chunk size to a pattern-block stride: the largest
// multiple of block not exceeding c when a whole block fits, else the
// largest divisor of block not exceeding c (consecutive chunks of a
// divisor tile each block exactly). Either way every chunk boundary
// lands on a block boundary; c is returned unchanged when no alignment
// is possible or needed.
func alignChunk(c, block int) int {
	if block <= 1 || c <= 1 {
		return c
	}
	if c >= block {
		return c - c%block
	}
	for d := c; d > 1; d-- {
		if block%d == 0 {
			return d
		}
	}
	return c
}

// sweepChunk is one work unit: a run of consecutive adversaries and the
// global index of the first. Chunks recycle through the engine's
// bounded freelist — the feeder takes one, fills it, and hands it to a
// worker, which releases it after its last adversary is processed — so
// a streaming sweep allocates a bounded handful of chunk arrays
// regardless of workload size. metered is the chunk's share of the
// governor's account (8 bytes per pointer of capacity), zero on
// ungoverned engines.
type sweepChunk struct {
	base    int
	advs    []*Adversary
	metered int64
}

// chunkPoolBound bounds the chunk freelist: at most workers+feeder
// chunks are ever in flight, so anything beyond that headroom is churn
// from a finished sweep.
func (e *Engine) chunkPoolBound() int { return e.params.Parallelism + 2 }

// newChunk takes a pooled chunk ready to hold size adversaries starting
// at global index base, metering the engine's chunk-pool hit rate and,
// under a governor, the array capacity it creates.
func (e *Engine) newChunk(base, size int) *sweepChunk {
	e.chunkMu.Lock()
	var c *sweepChunk
	if n := len(e.chunkFree); n > 0 {
		c = e.chunkFree[n-1]
		e.chunkFree[n-1] = nil
		e.chunkFree = e.chunkFree[:n-1]
	}
	e.chunkMu.Unlock()
	if c == nil {
		c = new(sweepChunk)
		e.statChunkMiss.Add(1)
	} else {
		e.statChunkHit.Add(1)
	}
	c.base = base
	if cap(c.advs) < size {
		c.advs = make([]*Adversary, 0, size)
		if e.gov != nil {
			if d := 8*int64(cap(c.advs)) - c.metered; d != 0 {
				e.gov.Grow(d)
				e.chunkBytes.Add(d)
				c.metered += d
			}
		}
	} else {
		c.advs = c.advs[:0]
	}
	return c
}

// dropChunk returns a retired chunk's accounted bytes to the governor.
func (e *Engine) dropChunk(c *sweepChunk) {
	if e.gov != nil && c.metered != 0 {
		e.gov.Shrink(c.metered)
		e.chunkBytes.Add(-c.metered)
		c.metered = 0
	}
}

// releaseChunk clears the adversary pointers — a pooled array must not
// pin a dropped workload — and returns the chunk to the freelist,
// unless the governor is shedding (or the freelist is full), in which
// case the chunk is dropped and its bytes returned to the account.
func (e *Engine) releaseChunk(c *sweepChunk) {
	clear(c.advs[:cap(c.advs)])
	c.advs = c.advs[:0]
	if e.gov != nil && !e.gov.Retain() {
		e.dropChunk(c)
		return
	}
	e.chunkMu.Lock()
	if len(e.chunkFree) < e.chunkPoolBound() {
		e.chunkFree = append(e.chunkFree, c)
		e.chunkMu.Unlock()
		return
	}
	e.chunkMu.Unlock()
	e.dropChunk(c)
}

// sweepExec is the shared executor skeleton behind every sweep variant:
// it resolves the protocol specs, spins the worker pool and the feeder
// goroutine that cuts the source into deterministic pooled chunks, and
// funnels out the first error (or context cancellation). body runs once
// per worker, owns all worker-local state, and must release every chunk
// it drains.
func (e *Engine) sweepExec(ctx context.Context, refs []string, src Source, body func(ctx context.Context, specs []*ProtocolSpec, jobs <-chan *sweepChunk) error) error {
	if e.err != nil {
		return e.err
	}
	if len(refs) == 0 {
		return fmt.Errorf("engine: sweep with no protocols")
	}
	specs := make([]*ProtocolSpec, len(refs))
	for i, ref := range refs {
		spec, err := e.reg.Lookup(ref)
		if err != nil {
			return err
		}
		specs[i] = spec
	}
	count, known := src.Count()

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	workers := e.params.Parallelism
	if workers < 1 {
		workers = 1
	}
	// A known count bounds useful parallelism — but only a trustworthy
	// one: a lying count of zero must not clamp the pool to nothing
	// while the stream yields adversaries anyway.
	if known && count > 0 && workers > count {
		workers = count
	}
	block := 1
	if pb, ok := src.(PatternBlocked); ok {
		block = pb.PatternBlock()
	}
	chunkSize := chunkSizeFor(count, known, workers, block)

	jobs := make(chan *sweepChunk)
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		cancel()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := body(ctx, specs, jobs); err != nil {
				fail(err)
			}
		}()
	}

	// The feeder pulls from the source iterator and hands out chunks; it
	// runs aside the workers so unbounded sources never buffer more than
	// one chunk ahead. Source iterators run arbitrary workload code, so
	// a panic there is converted into a typed sweep failure rather than
	// a process crash; the recovery defer runs before close(jobs), so
	// the workers still drain and exit cleanly.
	go func() {
		defer close(jobs)
		defer func() {
			if pe := govern.Recovered("engine: sweep feeder", recover()); pe != nil {
				fail(pe)
			}
		}()
		next := 0
		var chunk *sweepChunk
		send := func() bool {
			select {
			case jobs <- chunk:
				chunk = nil
				return true
			case <-ctx.Done():
				e.releaseChunk(chunk)
				chunk = nil
				return false
			}
		}
		for adv := range src.Seq() {
			if chunk == nil {
				chunk = e.newChunk(next, chunkSize)
			}
			chunk.advs = append(chunk.advs, adv)
			next++
			if len(chunk.advs) == chunkSize && !send() {
				return
			}
		}
		if chunk != nil {
			send()
		}
	}()

	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// sweep is the materializing executor behind Sweep and the stream
// variants: a worker pool runs sweepOne per adversary, and deliver
// receives every fresh Result tagged with its global adversary and
// protocol indices. Aggregating sweeps use sweepAggregate instead,
// which replaces deliver with per-worker folding.
func (e *Engine) sweep(ctx context.Context, refs []string, src Source, deliver func(advIdx, refIdx int, r *Result)) error {
	return e.sweepExec(ctx, refs, src, func(ctx context.Context, specs []*ProtocolSpec, jobs <-chan *sweepChunk) (err error) {
		// Worker-level panic isolation: a panicking protocol becomes a
		// typed sweep error (stack captured at the recovery site), the
		// other workers drain via the shared cancel, and the process
		// lives on.
		defer govern.Capture("engine: sweep worker", &err)
		var memo protoMemo
		for chunk := range jobs {
			for i, adv := range chunk.advs {
				if err := e.sweepOne(ctx, refs, specs, adv, chunk.base+i, deliver, &memo); err != nil {
					return err
				}
			}
			e.releaseChunk(chunk)
		}
		return nil
	})
}

// sweepAggregate is the aggregating executor behind SweepSource. Each
// worker owns a pooled runKit (RunBuffer + knowledge Builder) and a
// private shard of agg.Acc accumulators — one per protocol — and folds
// every run into them with plain integer bumps: no Result escapes, no
// lock is taken, no map is written. A worker merges its shard into the
// Aggregator exactly once, when the job channel is drained; the merge
// is the only synchronization point of the whole sweep, so throughput
// scales with Parallelism instead of flatlining on an aggregator lock.
func (e *Engine) sweepAggregate(ctx context.Context, refs []string, src Source, a *Aggregator) error {
	return e.sweepExec(ctx, refs, src, func(ctx context.Context, specs []*ProtocolSpec, jobs <-chan *sweepChunk) (err error) {
		kit := e.getKit()
		// Worker-level panic isolation, innermost so the captured stack
		// keeps the panic-origin frames: a panicking protocol run
		// becomes a typed sweep error, and the kit — possibly left
		// mid-mutation — is discarded rather than repooled.
		defer func() {
			if pe := govern.Recovered("engine: sweep worker", recover()); pe != nil {
				err = pe
				e.discardKit(kit)
				return
			}
			e.putKit(kit)
		}()
		shard := make([]agg.Acc, len(refs))
		var memo protoMemo
		for chunk := range jobs {
			for _, adv := range chunk.advs {
				if err := e.foldOne(ctx, refs, specs, adv, a, shard, kit, &memo); err != nil {
					return err
				}
			}
			e.releaseChunk(chunk)
		}
		a.mergeShard(shard)
		return nil
	})
}

// runKit is the pooled per-worker state of an aggregating sweep: the
// RunBuffer behind Backend.RunInto and, when the backend needs a graph,
// the worker's knowledge Builder. Kits recycle through the engine's
// bounded freelist so repeated sweeps reuse warmed-up buffers; bufBytes
// is the RunBuffer capacity last reported to the governor.
type runKit struct {
	buf      *RunBuffer
	builder  *knowledge.Builder
	bufBytes int64
}

// kitPoolBound bounds the kit freelist: one sweep checks out at most
// Parallelism kits, so that is the steady-state working set worth
// keeping warm.
func (e *Engine) kitPoolBound() int { return e.params.Parallelism }

func (e *Engine) getKit() *runKit {
	e.kitMu.Lock()
	var kit *runKit
	if n := len(e.kitFree); n > 0 {
		kit = e.kitFree[n-1]
		e.kitFree[n-1] = nil
		e.kitFree = e.kitFree[:n-1]
	}
	e.kitMu.Unlock()
	if kit == nil {
		kit = &runKit{buf: NewRunBuffer()}
		e.statKitMiss.Add(1)
	} else {
		e.statKitHit.Add(1)
	}
	if kit.builder == nil && e.backend.NeedsGraph() {
		kit.builder = knowledge.NewBuilder()
		if e.gov != nil {
			kit.builder.SetMeter(e.gov)
		}
	}
	return kit
}

// putKit harvests the kit's builder counters, settles its RunBuffer
// byte account, and returns it to the freelist — unless the governor is
// shedding (or the freelist is full), in which case the kit is
// discarded and every byte it held goes back to the account.
func (e *Engine) putKit(kit *runKit) {
	e.harvestKit(kit)
	if e.gov != nil {
		if d := kit.buf.Bytes() - kit.bufBytes; d != 0 {
			e.gov.Grow(d)
			kit.bufBytes += d
		}
		if !e.gov.Retain() {
			e.dropKit(kit)
			return
		}
	}
	e.kitMu.Lock()
	if len(e.kitFree) < e.kitPoolBound() {
		e.kitFree = append(e.kitFree, kit)
		e.kitMu.Unlock()
		return
	}
	e.kitMu.Unlock()
	e.dropKit(kit)
}

// harvestKit folds the kit's builder counts into the engine counters.
func (e *Engine) harvestKit(kit *runKit) {
	if kit.builder != nil {
		built, revived, patched := kit.builder.TakeCounts()
		e.statBuilt.Add(int64(built))
		e.statRevived.Add(int64(revived))
		e.statPatched.Add(int64(patched))
	}
}

// dropKit releases a retired kit's accounted bytes: the builder's whole
// storage account (covering graphs a panic never Released) and the
// RunBuffer capacity.
func (e *Engine) dropKit(kit *runKit) {
	if kit.builder != nil {
		kit.builder.Discard()
		kit.builder = nil
	}
	if e.gov != nil && kit.bufBytes != 0 {
		e.gov.Shrink(kit.bufBytes)
		kit.bufBytes = 0
	}
}

// discardKit retires a kit whose state may be corrupt (a recovered
// panic mid-fold): counters are still harvested, then everything the
// kit holds is released rather than repooled.
func (e *Engine) discardKit(kit *runKit) {
	e.harvestKit(kit)
	e.dropKit(kit)
}

// Close releases every pooled buffer the engine retains — warm kits and
// sweep chunks — and returns their accounted bytes to the governor,
// including bytes from chunks a panicking worker dropped mid-sweep. The
// engine stays usable afterwards (pools just start cold); long-running
// processes that build per-job engines against one shared governor must
// call it when the job ends, or the account would drift upward with
// every retired engine's warm buffers. Safe to call repeatedly.
func (e *Engine) Close() {
	e.kitMu.Lock()
	kits := e.kitFree
	e.kitFree = nil
	e.kitMu.Unlock()
	for _, kit := range kits {
		e.dropKit(kit)
	}
	e.chunkMu.Lock()
	e.chunkFree = nil
	e.chunkMu.Unlock()
	if e.gov != nil {
		if b := e.chunkBytes.Swap(0); b != 0 {
			e.gov.Shrink(b)
		}
	}
}

// protoMemo is a worker-local memo of the resolved protocol entries and
// shared horizon for one Params value. Within a sweep the params only
// change when the workload varies n or t per adversary, so the memo
// keeps the hot loop off the engine-global cache mutex entirely.
type protoMemo struct {
	valid   bool
	p       Params
	horizon int
	entries []protoEntry
}

// memoFor refreshes the memo when the params change.
func (e *Engine) memoFor(memo *protoMemo, refs []string, specs []*ProtocolSpec, p Params) {
	if memo.valid && memo.p == p {
		return
	}
	memo.entries = memo.entries[:0]
	for refIdx, spec := range specs {
		memo.entries = append(memo.entries, e.protoFor(refs[refIdx], spec, p))
	}
	memo.horizon = e.horizonFor(specs, p)
	memo.p, memo.valid = p, true
}

// sweepOne runs all protocols of a sweep against one adversary, sharing
// one knowledge graph and one memoized adversary-string renderer across
// them, and delivers each fresh Result.
func (e *Engine) sweepOne(ctx context.Context, refs []string, specs []*ProtocolSpec, adv *Adversary, advIdx int, deliver func(advIdx, refIdx int, r *Result), memo *protoMemo) error {
	p, err := e.runParams(adv)
	if err != nil {
		return err
	}
	e.memoFor(memo, refs, specs, p)
	var g *knowledge.Graph
	if e.backend.NeedsGraph() {
		g = e.graphFor(adv, memo.horizon)
	}
	advStr := advString(adv)
	for refIdx, spec := range specs {
		if err := ctx.Err(); err != nil {
			return err
		}
		res, err := e.backend.Run(ctx, newRunRequest(refs[refIdx], spec, memo.entries[refIdx], p, adv, advStr, g))
		if err != nil {
			return err
		}
		deliver(advIdx, refIdx, res)
	}
	return nil
}

// foldOne runs all protocols of an aggregating sweep against one
// adversary through the pooled RunInto path and folds each outcome into
// the worker's shard. The context is polled once per adversary (RunInto
// deliberately skips the per-run check); the knowledge graph is built
// in the worker's reused arena and released as soon as the adversary's
// runs are folded — safe because nothing escapes the fold.
func (e *Engine) foldOne(ctx context.Context, refs []string, specs []*ProtocolSpec, adv *Adversary, a *Aggregator, shard []agg.Acc, kit *runKit, memo *protoMemo) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	p, err := e.runParams(adv)
	if err != nil {
		return err
	}
	e.memoFor(memo, refs, specs, p)
	var g *knowledge.Graph
	if e.backend.NeedsGraph() {
		g = kit.builder.Build(adv, memo.horizon)
		defer g.Release()
	}
	req := &kit.buf.req
	for refIdx, spec := range specs {
		ent := &memo.entries[refIdx]
		*req = RunRequest{
			Ref: refs[refIdx], Spec: spec,
			Proto: ent.proto, ProtoErr: ent.err, Name: ent.name,
			Params: p, Adv: adv, Graph: g,
		}
		res, err := e.backend.RunInto(ctx, req, kit.buf)
		if err != nil {
			return err
		}
		a.fold(&shard[refIdx], refIdx, res, kit.buf)
	}
	a.advDone()
	return nil
}

// sweepProgressInterval is the default snapshot period of
// SweepSourceProgress when the caller passes every ≤ 0.
const sweepProgressInterval = 100 * time.Millisecond

// SweepSourceProgress is SweepSource with a streaming progress feed —
// the aggregating-sweep analogue of AnalyzeStream. While the sweep runs,
// progress receives throttled SweepProgress snapshots every interval
// (every ≤ 0 means the 100ms default), serialized from one goroutine at
// a time, followed by exactly one final snapshot after the last run has
// folded. The run path itself is untouched: workers bump one atomic per
// adversary and a side ticker reads it, so progress costs the hot loop
// nothing measurable. Cancelling ctx aborts the sweep promptly.
func (e *Engine) SweepSourceProgress(ctx context.Context, refs []string, src Source, every time.Duration, progress func(SweepProgress)) (*Summary, error) {
	if e.err != nil {
		return nil, e.err
	}
	if src == nil {
		return nil, fmt.Errorf("engine: nil source")
	}
	a, err := e.NewAggregator(src.Label(), refs)
	if err != nil {
		return nil, err
	}
	var stop, done chan struct{}
	if progress != nil {
		if every <= 0 {
			every = sweepProgressInterval
		}
		stop, done = make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			t := time.NewTicker(every)
			defer t.Stop()
			last := SweepProgress{Adversaries: -1}
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					if p := a.Progress(); p != last {
						last = p
						progress(p)
					}
				}
			}
		}()
	}
	err = e.sweepAggregate(ctx, refs, src, a)
	if progress != nil {
		// Quiesce the ticker before the closing snapshot so emission
		// stays serialized and the final snapshot is the last delivered.
		close(stop)
		<-done
	}
	if err != nil {
		return nil, err
	}
	if progress != nil {
		progress(a.Progress())
	}
	return a.Summary(), nil
}
