// Package coord implements distributed checkpointed sweeps: a
// coordinator that shards one exhaustive adversary space across workers
// by offset range, hands out time-bounded leases, merges the returned
// partial Summaries, and checkpoints its state as atomic JSON so a
// killed sweep resumes where it left off.
//
// # Vocabulary
//
// A range is the unit of work: the window [offset, offset+limit) of a
// workload's deterministic enumeration order, exactly what
// enum.Space.Range and setconsensus.RangeSource yield. Ranges are
// minted lazily — the coordinator does not need to know the space's
// size up front; a range that comes back with fewer adversaries than
// its limit pins the end of the space.
//
// A lease is a time-bounded claim on one range by one worker. A lease
// that expires before its result arrives puts the range back in the
// pending queue for re-issue; semantics are at-least-once, and
// completions deduplicate by range offset, so a slow worker's late
// result and a re-issue's result merge exactly once.
//
// A checkpoint is the coordinator's durable state: the merged Summary
// of every completed range plus the pending set (leases are deliberately
// not persisted — on resume every outstanding range is pending again).
// Every completion seals a checkpoint; during Run a background writer
// writes the newest sealed one atomically (temp file + rename), so a
// completion never waits on the disk and a state sealed while a write
// is in flight supersedes its predecessor instead of queueing behind
// it. A completed range never changes, so its JSON is encoded once and
// cached: over a sweep, sealing costs one encode per range plus O(#done)
// slice copies per seal, and the writer splices the cached encodings
// into the file — nothing is re-marshaled. Checkpoints carry an
// embedded checksum and keep a .bak of the last good file, so a
// SIGKILL — or a torn write — at any instant leaves a loadable state,
// at most the write in flight behind (its ranges are swept again on
// resume). Run returns only once the final state is on disk.
//
// Resume is New with a CheckpointPath whose file exists: the
// coordinator validates the checksum (falling back to the .bak when the
// primary is corrupt or truncated), checks that workload, refs, and
// range size match, then continues from the recorded frontier. The
// final merged Summary is byte-identical to a single-process
// Engine.SweepSource over the whole workload, because Summary.Merge is
// associative and commutative over the partition.
//
// # Fault tolerance
//
// Failed ranges are re-issued with capped exponential backoff and full
// jitter, bounded by MaxAttempts per range. A circuit breaker per
// worker quarantines a worker after BreakerThreshold consecutive
// failures, so a persistently bad worker stops burning range attempts
// and the sweep degrades gracefully to the healthy fleet; the failure
// that trips the breaker refunds its range attempt, attributing the
// fault to the worker rather than the range. A quarantined worker
// re-enters on probation after BreakerProbation (doubling per
// consecutive trip, capped at 8×): it gets exactly one trial range —
// success closes the breaker, failure re-quarantines. Every decision
// point is observable through Stats and the "setconsensuscoord" expvar
// map, and deterministically testable through the chaos.Injector
// threaded behind Params.Chaos.
package coord

import (
	"cmp"
	"context"
	"errors"
	"expvar"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	setconsensus "setconsensus"
	"setconsensus/internal/agg"
	"setconsensus/internal/chaos"
	"setconsensus/internal/service"
)

// The typed parameter errors. Validate wraps them with the offending
// values, so callers branch with errors.Is while logs keep the numbers.
var (
	// ErrRangeSize rejects a non-positive range size.
	ErrRangeSize = errors.New("coord: need a positive range size")
	// ErrLease rejects a non-positive lease duration.
	ErrLease = errors.New("coord: need a positive lease")
	// ErrMaxAttempts rejects a non-positive per-range attempt budget.
	ErrMaxAttempts = errors.New("coord: need a positive attempt budget")
	// ErrRetryBackoff rejects a negative retry backoff base.
	ErrRetryBackoff = errors.New("coord: negative retry backoff")
	// ErrBackoffCap rejects a retry backoff cap that is negative or
	// below the base — an exponential schedule that can never grow is a
	// misconfiguration, not a mode.
	ErrBackoffCap = errors.New("coord: bad retry backoff cap")
	// ErrBreaker rejects negative circuit-breaker parameters.
	ErrBreaker = errors.New("coord: bad circuit-breaker parameters")
)

// Range is the unit of distributed work: the window
// [Offset, Offset+Limit) of the workload's enumeration order.
type Range struct {
	Offset int `json:"offset"`
	Limit  int `json:"limit"`
}

func (r Range) String() string { return fmt.Sprintf("[%d,%d)", r.Offset, r.Offset+r.Limit) }

// Params configures a Coordinator.
type Params struct {
	// RangeSize is the number of adversaries per minted range. Resume
	// requires the same size the checkpoint was written with.
	RangeSize int
	// Lease bounds how long a worker may hold a range before it is
	// re-issued to another worker.
	Lease time.Duration
	// MaxAttempts bounds how many times one range may be issued (first
	// grant included) before the sweep fails. Lease expiries count;
	// failures that trip a worker's breaker are refunded.
	MaxAttempts int
	// RetryBackoff is the base delay before re-issuing a failed range.
	// The actual delay grows exponentially with the attempt count,
	// capped at RetryBackoffCap, with full jitter (uniform in
	// [0, capped backoff]) so a burst of failures does not re-issue in
	// lockstep.
	RetryBackoff time.Duration
	// RetryBackoffCap caps the exponential re-issue backoff. Zero means
	// "no growth" (every delay jitters within the base); a non-zero cap
	// below the base is rejected by Validate with ErrBackoffCap.
	RetryBackoffCap time.Duration
	// BreakerThreshold is the number of consecutive failures (lease
	// expiries included) that quarantines a worker. Zero disables the
	// per-worker circuit breaker.
	BreakerThreshold int
	// BreakerProbation is how long a tripped worker sits quarantined
	// before it is re-admitted for a single trial range. Consecutive
	// trips double it, capped at 8× the configured value.
	BreakerProbation time.Duration
	// CheckpointPath, when non-empty, enables durable state: the file is
	// loaded on New when it exists (resume) and rewritten atomically
	// after range completions (the newest state at each write, and the
	// final one before Run returns), with a .bak of the last good state.
	// Each completed range is encoded once; a seal then costs O(#done)
	// slice copies under the coordinator lock, and the writer splices
	// the cached encodings into the file without re-marshaling them.
	CheckpointPath string
	// ProgressInterval throttles the aggregated progress feed.
	ProgressInterval time.Duration
	// Total is the workload's adversary count when known up front
	// (0 = unknown); it only feeds progress snapshots.
	Total int
	// Chaos, when non-nil, injects faults at the coordinator's named
	// injection points (dropped and duplicated completions, torn
	// checkpoint writes). Nil — the default — never fires. Workers
	// carry their own injector via WithChaos.
	Chaos chaos.Injector
}

// Default returns the coordinator defaults; RangeSize suits spaces of
// thousands of adversaries, tune down for coarse fault-injection tests.
func Default() Params {
	return Params{
		RangeSize:        256,
		Lease:            30 * time.Second,
		MaxAttempts:      3,
		RetryBackoff:     250 * time.Millisecond,
		RetryBackoffCap:  5 * time.Second,
		BreakerThreshold: 3,
		BreakerProbation: 5 * time.Second,
		ProgressInterval: 100 * time.Millisecond,
	}
}

// Validate rejects unusable parameter combinations, wrapping the typed
// errors above.
func (p Params) Validate() error {
	if p.RangeSize <= 0 {
		return fmt.Errorf("%w (got %d)", ErrRangeSize, p.RangeSize)
	}
	if p.Lease <= 0 {
		return fmt.Errorf("%w (got %v)", ErrLease, p.Lease)
	}
	if p.MaxAttempts <= 0 {
		return fmt.Errorf("%w (got %d)", ErrMaxAttempts, p.MaxAttempts)
	}
	if p.RetryBackoff < 0 {
		return fmt.Errorf("%w (got %v)", ErrRetryBackoff, p.RetryBackoff)
	}
	if p.RetryBackoffCap < 0 {
		return fmt.Errorf("%w: negative cap %v", ErrBackoffCap, p.RetryBackoffCap)
	}
	if p.RetryBackoffCap > 0 && p.RetryBackoffCap < p.RetryBackoff {
		return fmt.Errorf("%w: cap %v below base %v", ErrBackoffCap, p.RetryBackoffCap, p.RetryBackoff)
	}
	if p.BreakerThreshold < 0 {
		return fmt.Errorf("%w: negative threshold %d", ErrBreaker, p.BreakerThreshold)
	}
	if p.BreakerProbation < 0 {
		return fmt.Errorf("%w: negative probation %v", ErrBreaker, p.BreakerProbation)
	}
	if p.Total < 0 {
		return fmt.Errorf("coord: negative total %d", p.Total)
	}
	return nil
}

// rangeState tracks one minted, not-yet-completed range through the
// pending → leased (→ pending …) lifecycle. One record exists per
// offset; a re-issued range reuses it, so the attempt count survives
// lease turnover.
type rangeState struct {
	Range
	attempts  int       // grants so far, bounded by MaxAttempts
	overloads int       // consecutive shed/429 returns, scales backoff
	notBefore time.Time // earliest re-issue after a failure
	worker    string    // current leaseholder, "" when pending
	expiry    time.Time // lease expiry when leased
	liveAdv   int       // leaseholder's latest progress snapshot
	liveRuns  int
}

// doneRange is one completed range: its summary and the adversary count
// it actually contained (short count = the space ended inside it). A
// range that came back empty lies past the end of the space and is
// never recorded.
type doneRange struct {
	Range
	Count   int
	Summary *setconsensus.Summary
	enc     []byte // checkpointDone JSON, encoded at the first seal
}

// breakerState is the lifecycle of one worker's circuit breaker:
// closed (healthy) → open (quarantined) → half-open (one probation
// trial in flight) → closed on success, open again on failure.
type breakerState uint8

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is the per-worker failure ledger behind quarantine decisions.
type breaker struct {
	state       breakerState
	consecFails int       // consecutive failures while closed
	trips       int       // consecutive opens; scales probation
	reopenAt    time.Time // open: earliest probation trial
}

// Coordinator shards one workload across workers. Build with New, run
// with Run; a Coordinator is single-use.
type Coordinator struct {
	params   Params
	workload string // workload reference; also the merged Summary's label
	refs     []string

	mu        sync.Mutex
	next      int                 // next unminted offset
	exhausted bool                // the space's end has been observed
	end       int                 // space size, valid once exhausted
	pending   []*rangeState       // claimable (possibly backoff-delayed), any order
	leased    map[int]*rangeState // offset → outstanding lease
	done      []*doneRange        // completed ranges, ascending offset
	breakers  map[string]*breaker // worker name → circuit breaker
	doneAdv   int                 // adversaries across done ranges
	doneRuns  int                 // runs across done ranges
	fatal     error               // first unrecoverable error
	lastEmit  time.Time           // progress throttle
	progress  func(setconsensus.SweepProgress)
	cancel    context.CancelFunc // cancels the run on fatal

	// Robustness counters, snapshotted by Stats.
	statRetries     int64 // failed ranges re-queued for another attempt
	statRefunds     int64 // range attempts refunded on breaker trips
	statOverloads   int64 // overloaded (shedding/429) returns backed off
	statExpiries    int64 // leases expired and re-issued
	statTrips       int64 // breaker transitions into quarantine
	statProbations  int64 // probation trial ranges granted
	statCkptFallbak int64 // checkpoint loads served from the .bak
	statCkptWrites  int64 // sealed states handed to the disk
	statCkptSuperse int64 // sealed states replaced before the writer woke

	// While Run's checkpoint writer is active, writeCheckpointLocked
	// leaves the sealed state in ckptNext and signals ckptWake (nil
	// otherwise, when it writes the state itself).
	ckptWake chan struct{}
	ckptNext *checkpointState
}

// New builds a coordinator for one workload. workload is both the
// reference remote workers submit and the label of the merged Summary —
// pass the same string a single-process `-workload` run would use, so
// the merged result is byte-identical to the monolithic one. When
// p.CheckpointPath names an existing file, the coordinator resumes from
// it (and rejects a checkpoint written for a different workload, ref
// set, or range size).
func New(workload string, refs []string, p Params) (*Coordinator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if workload == "" {
		return nil, fmt.Errorf("coord: empty workload reference")
	}
	if len(refs) == 0 {
		return nil, fmt.Errorf("coord: no protocol refs")
	}
	c := &Coordinator{
		params:   p,
		workload: workload,
		refs:     append([]string(nil), refs...),
		leased:   make(map[int]*rangeState),
		breakers: make(map[string]*breaker),
	}
	if p.CheckpointPath != "" {
		if err := c.loadCheckpoint(p.CheckpointPath); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Stats is a point-in-time snapshot of the coordinator's robustness
// counters — the coordinator's analogue of Engine.Stats, published
// process-wide through the "setconsensuscoord" expvar map.
type Stats struct {
	// RangesDone is the completed-range count so far.
	RangesDone int64 `json:"rangesDone"`
	// RangeRetries counts failed ranges re-queued for another attempt.
	RangeRetries int64 `json:"rangeRetries"`
	// AttemptsRefunded counts range attempts refunded because the
	// failure tripped the worker's breaker (fault attributed to the
	// worker, not the range).
	AttemptsRefunded int64 `json:"attemptsRefunded"`
	// OverloadBackoffs counts range returns classified as worker
	// overload (queue-full/shedding 429, draining 503): the attempt is
	// refunded and the range re-queued with backoff, without charging
	// the worker's breaker — a governed fleet sheds, it does not
	// quarantine healthy-but-busy workers.
	OverloadBackoffs int64 `json:"overloadBackoffs"`
	// LeaseExpiries counts leases that expired and were re-issued.
	LeaseExpiries int64 `json:"leaseExpiries"`
	// BreakerTrips counts transitions into quarantine.
	BreakerTrips int64 `json:"breakerTrips"`
	// ProbationGrants counts trial ranges granted to quarantined
	// workers after probation.
	ProbationGrants int64 `json:"probationGrants"`
	// QuarantinedWorkers is the gauge of workers currently open or on a
	// probation trial.
	QuarantinedWorkers int64 `json:"quarantinedWorkers"`
	// CheckpointFallbacks counts checkpoint loads served from the .bak
	// after a corrupt or truncated primary.
	CheckpointFallbacks int64 `json:"checkpointFallbacks"`
	// CheckpointWrites counts sealed states written to disk (injected
	// torn writes included).
	CheckpointWrites int64 `json:"checkpointWrites"`
	// CheckpointsSuperseded counts sealed states the background writer
	// skipped because a newer one was sealed before it woke. Every seal
	// is either written or superseded.
	CheckpointsSuperseded int64 `json:"checkpointsSuperseded"`
	// FaultsInjected totals the chaos injector's fired faults, when one
	// is configured and countable.
	FaultsInjected int64 `json:"faultsInjected"`
}

// Stats snapshots the coordinator's robustness counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		RangesDone:            int64(len(c.done)),
		RangeRetries:          c.statRetries,
		AttemptsRefunded:      c.statRefunds,
		OverloadBackoffs:      c.statOverloads,
		LeaseExpiries:         c.statExpiries,
		BreakerTrips:          c.statTrips,
		ProbationGrants:       c.statProbations,
		CheckpointFallbacks:   c.statCkptFallbak,
		CheckpointWrites:      c.statCkptWrites,
		CheckpointsSuperseded: c.statCkptSuperse,
	}
	for _, b := range c.breakers {
		if b.state != breakerClosed {
			s.QuarantinedWorkers++
		}
	}
	if t, ok := c.params.Chaos.(interface{ Total() int64 }); ok {
		s.FaultsInjected = t.Total()
	}
	return s
}

// expvar publication is process-global and append-only, while tests
// build many coordinators — so the package publishes one
// "setconsensuscoord" Func reading whichever coordinator ran most
// recently, mirroring the service package's expvar shape.
var (
	expvarOnce  sync.Once
	activeCoord atomic.Pointer[Coordinator]
)

func publishExpvar(c *Coordinator) {
	activeCoord.Store(c)
	expvarOnce.Do(func() {
		expvar.Publish("setconsensuscoord", expvar.Func(func() any {
			if c := activeCoord.Load(); c != nil {
				return c.Stats()
			}
			return Stats{}
		}))
	})
}

// claimPoll bounds how often a waiting worker rescans for expired
// leases, matured backoffs, and probation re-admissions.
func (c *Coordinator) claimPoll() time.Duration {
	poll := c.params.Lease / 4
	if poll > 50*time.Millisecond {
		poll = 50 * time.Millisecond
	}
	if poll < time.Millisecond {
		poll = time.Millisecond
	}
	return poll
}

// claim hands worker the next range: an expired or matured pending
// range first, else a freshly minted one. It blocks (polling) while
// every candidate is leased out or backing off — or while the worker
// itself is quarantined — returns ok=false when the sweep is complete,
// and an error when the run is cancelled or has failed fatally.
func (c *Coordinator) claim(ctx context.Context, worker string) (*rangeState, bool, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		c.mu.Lock()
		if c.fatal != nil {
			err := c.fatal
			c.mu.Unlock()
			return nil, false, err
		}
		now := time.Now()
		c.expireLeasesLocked(now)
		if admitted, trial := c.workerAdmitLocked(worker, now); admitted {
			if rs := c.takePendingLocked(now); rs != nil {
				c.grantLocked(rs, worker, now, trial)
				c.mu.Unlock()
				return rs, true, nil
			}
			if !c.exhausted {
				rs := &rangeState{Range: Range{Offset: c.next, Limit: c.params.RangeSize}}
				c.next += c.params.RangeSize
				c.grantLocked(rs, worker, now, trial)
				c.mu.Unlock()
				return rs, true, nil
			}
		}
		idle := c.exhausted && len(c.leased) == 0 && len(c.pending) == 0
		c.mu.Unlock()
		if idle {
			return nil, false, nil
		}
		select {
		case <-ctx.Done():
			return nil, false, ctx.Err()
		case <-time.After(c.claimPoll()):
		}
	}
}

// workerAdmitLocked decides whether worker may be granted a range right
// now. A quarantined worker is admitted once its probation matured;
// trial=true then marks the grant as the breaker's half-open trial.
func (c *Coordinator) workerAdmitLocked(worker string, now time.Time) (admitted, trial bool) {
	if c.params.BreakerThreshold <= 0 {
		return true, false
	}
	b := c.breakers[worker]
	if b == nil || b.state == breakerClosed {
		return true, false
	}
	if b.state == breakerOpen && !now.Before(b.reopenAt) {
		return true, true
	}
	return false, false // quarantined, or a probation trial already in flight
}

// expireLeasesLocked returns every expired lease to the pending queue
// and charges the silent leaseholder's breaker — an unresponsive worker
// is indistinguishable from a crashed one.
func (c *Coordinator) expireLeasesLocked(now time.Time) {
	for off, rs := range c.leased {
		if now.After(rs.expiry) {
			holder := rs.worker
			rs.worker, rs.liveAdv, rs.liveRuns = "", 0, 0
			delete(c.leased, off)
			c.pending = append(c.pending, rs)
			c.statExpiries++
			if c.noteWorkerFailureLocked(holder, now) && rs.attempts > 0 {
				rs.attempts--
				c.statRefunds++
			}
		}
	}
}

// takePendingLocked removes and returns the lowest-offset pending range
// whose backoff has matured, or nil.
func (c *Coordinator) takePendingLocked(now time.Time) *rangeState {
	best := -1
	for i, rs := range c.pending {
		if rs.notBefore.After(now) {
			continue
		}
		if best < 0 || rs.Offset < c.pending[best].Offset {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	rs := c.pending[best]
	c.pending = append(c.pending[:best], c.pending[best+1:]...)
	return rs
}

// grantLocked leases rs to worker and counts the attempt. A trial grant
// moves the worker's breaker to half-open: one range decides whether it
// re-joins the fleet or goes back into quarantine.
func (c *Coordinator) grantLocked(rs *rangeState, worker string, now time.Time, trial bool) {
	rs.attempts++
	rs.worker = worker
	rs.expiry = now.Add(c.params.Lease)
	rs.liveAdv, rs.liveRuns = 0, 0
	c.leased[rs.Offset] = rs
	if trial {
		c.breakerFor(worker).state = breakerHalfOpen
		c.statProbations++
	}
}

func (c *Coordinator) breakerFor(worker string) *breaker {
	b := c.breakers[worker]
	if b == nil {
		b = &breaker{}
		c.breakers[worker] = b
	}
	return b
}

// noteWorkerFailureLocked records one failure against worker's breaker
// and reports whether this failure tripped it closed → open — the
// signal to refund the range attempt, attributing the fault to the
// worker rather than the range. A failed half-open trial re-opens with
// escalated probation and no refund, so a poisoned range still runs
// into MaxAttempts eventually.
func (c *Coordinator) noteWorkerFailureLocked(worker string, now time.Time) (refund bool) {
	if c.params.BreakerThreshold <= 0 {
		return false
	}
	b := c.breakerFor(worker)
	if b.state == breakerHalfOpen {
		b.trips++
		b.state = breakerOpen
		b.reopenAt = now.Add(c.probationFor(b.trips))
		c.statTrips++
		return false
	}
	b.consecFails++
	if b.consecFails >= c.params.BreakerThreshold {
		b.consecFails = 0
		b.trips++
		b.state = breakerOpen
		b.reopenAt = now.Add(c.probationFor(b.trips))
		c.statTrips++
		return true
	}
	return false
}

// noteWorkerSuccessLocked closes worker's breaker: any success resets
// the consecutive-failure ledger and the probation escalation.
func (c *Coordinator) noteWorkerSuccessLocked(worker string) {
	if b := c.breakers[worker]; b != nil {
		b.state = breakerClosed
		b.consecFails, b.trips = 0, 0
	}
}

// probationFor scales the quarantine by consecutive trips: doubling per
// trip, capped at 8× the configured probation.
func (c *Coordinator) probationFor(trips int) time.Duration {
	p := c.params.BreakerProbation
	for i := 1; i < trips && i < 4; i++ {
		p *= 2
	}
	return p
}

// backoffFor computes the re-issue delay after a failed attempt:
// exponential in the attempt count from the RetryBackoff base, capped
// at RetryBackoffCap, with full jitter (uniform in [0, backoff]) so
// simultaneous failures do not re-issue in lockstep.
func (c *Coordinator) backoffFor(attempts int) time.Duration {
	base := c.params.RetryBackoff
	if base <= 0 {
		return 0
	}
	ceil := c.params.RetryBackoffCap
	if ceil <= 0 {
		ceil = base
	}
	d := base
	for i := 1; i < attempts && d < ceil; i++ {
		d *= 2
	}
	if d > ceil {
		d = ceil
	}
	return time.Duration(rand.Int64N(int64(d) + 1))
}

// complete records one worker's outcome for rs. Success merges the
// summary (idempotently: a duplicate completion of an already-done
// offset is dropped), detects exhaustion from a short count, and
// checkpoints. Failure charges the worker's breaker, then re-queues the
// range with jittered exponential backoff until MaxAttempts grants are
// spent, then fails the whole run.
func (c *Coordinator) complete(ctx context.Context, worker string, rs *rangeState, sum *setconsensus.Summary, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	off := rs.Offset

	if err != nil {
		// A cancelled run is not a worker failure: leave the range to the
		// checkpoint's pending set (leases are not persisted) and exit.
		if ctx.Err() != nil || errors.Is(err, context.Canceled) {
			return
		}
		// The lease may have expired and been re-issued while this worker
		// struggled; if someone else now owns or completed the range, this
		// stale failure is moot.
		if cur, ok := c.leased[off]; !ok || cur.worker != worker {
			return
		}
		if c.doneAt(off) != nil {
			return
		}
		now := time.Now()
		// Overload (queue-full/shedding 429, draining 503) is the worker
		// governing itself, not failing: refund the attempt, skip the
		// breaker, and re-queue with backoff scaled by consecutive
		// overloads so a ceilinged fleet drains instead of thrashing.
		if service.IsOverload(err) {
			rs.overloads++
			c.statOverloads++
			if rs.attempts > 0 {
				rs.attempts--
			}
			rs.worker, rs.liveAdv, rs.liveRuns = "", 0, 0
			rs.notBefore = now.Add(c.backoffFor(rs.overloads))
			delete(c.leased, off)
			c.pending = append(c.pending, rs)
			return
		}
		rs.overloads = 0
		if c.noteWorkerFailureLocked(worker, now) && rs.attempts > 0 {
			rs.attempts--
			c.statRefunds++
		}
		if rs.attempts >= c.params.MaxAttempts {
			c.fatal = fmt.Errorf("coord: range %s failed after %d attempts: %w", rs.Range, rs.attempts, err)
			if c.cancel != nil {
				c.cancel()
			}
			return
		}
		rs.worker, rs.liveAdv, rs.liveRuns = "", 0, 0
		rs.notBefore = now.Add(c.backoffFor(rs.attempts))
		delete(c.leased, off)
		c.pending = append(c.pending, rs)
		c.statRetries++
		return
	}

	c.noteWorkerSuccessLocked(worker)
	if c.doneAt(off) != nil {
		return // duplicate completion after a re-issue: first result won
	}
	delete(c.leased, off)
	c.dropPendingLocked(off)
	count := sum.Adversaries()
	if count < rs.Limit && (!c.exhausted || off+count < c.end) {
		c.setEndLocked(off + count) // the space ended inside this range
	}
	if count > 0 {
		c.addDoneLocked(&doneRange{Range: rs.Range, Count: count, Summary: sum})
	}
	if werr := c.writeCheckpointLocked(); werr != nil && c.fatal == nil {
		c.fatal = werr
		if c.cancel != nil {
			c.cancel()
		}
		return
	}
	c.emitProgressLocked(true)
}

// setEndLocked pins the end of the space: minting stops, pending ranges
// and leases wholly past the end are dropped (they could only come back
// empty), and the frontier moves to the first range boundary at or past
// the end. Every outstanding range then lies below the frontier, so each
// later checkpoint stays loadable; together with empty ranges never
// being recorded, this keeps the final checkpoint independent of how
// many ranges past the end were minted before the end was known. A
// worker still sweeping a dropped lease completes it as a no-op.
func (c *Coordinator) setEndLocked(end int) {
	c.exhausted = true
	c.end = end
	size := c.params.RangeSize
	c.next = (end + size - 1) / size * size
	kept := c.pending[:0]
	for _, p := range c.pending {
		if p.Offset < end {
			kept = append(kept, p)
		}
	}
	c.pending = kept
	for off := range c.leased {
		if off >= end {
			delete(c.leased, off)
		}
	}
}

// doneAt returns the completed range at offset off, or nil.
func (c *Coordinator) doneAt(off int) *doneRange {
	if i, ok := c.doneIndex(off); ok {
		return c.done[i]
	}
	return nil
}

// doneIndex returns where offset off sits, or would sit, in the done
// list, and whether a range is there.
func (c *Coordinator) doneIndex(off int) (int, bool) {
	return slices.BinarySearchFunc(c.done, off, func(d *doneRange, off int) int { return cmp.Compare(d.Offset, off) })
}

// addDoneLocked records one completed range in offset order.
func (c *Coordinator) addDoneLocked(d *doneRange) {
	i, _ := c.doneIndex(d.Offset)
	c.done = slices.Insert(c.done, i, d)
	c.doneAdv += d.Count
	c.doneRuns += d.Summary.Runs()
}

// dropPendingLocked removes any queued re-issue of offset off.
func (c *Coordinator) dropPendingLocked(off int) {
	kept := c.pending[:0]
	for _, p := range c.pending {
		if p.Offset != off {
			kept = append(kept, p)
		}
	}
	c.pending = kept
}

// liveProgress folds one worker's in-range progress snapshot into the
// aggregated feed.
func (c *Coordinator) liveProgress(off int, p setconsensus.SweepProgress) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rs, ok := c.leased[off]; ok {
		rs.liveAdv, rs.liveRuns = p.Adversaries, p.Runs
	}
	c.emitProgressLocked(false)
}

// emitProgressLocked streams the aggregated snapshot — completed ranges
// plus every live lease — throttled to ProgressInterval unless forced.
func (c *Coordinator) emitProgressLocked(force bool) {
	if c.progress == nil {
		return
	}
	now := time.Now()
	if !force && now.Sub(c.lastEmit) < c.params.ProgressInterval {
		return
	}
	c.lastEmit = now
	p := setconsensus.SweepProgress{Adversaries: c.doneAdv, Runs: c.doneRuns, Total: c.totalLocked()}
	for _, rs := range c.leased {
		p.Adversaries += rs.liveAdv
		p.Runs += rs.liveRuns
	}
	c.progress(p)
}

func (c *Coordinator) totalLocked() int {
	if c.exhausted {
		return c.end
	}
	return c.params.Total
}

// Run executes the sweep on the given workers until the space is
// exhausted and every range completed, then returns the merged Summary.
// progress, when non-nil, receives throttled aggregate SweepProgress
// snapshots. On cancellation Run returns ctx's error with the
// checkpoint (when configured) holding everything completed so far; a
// later Run resumes from it.
func (c *Coordinator) Run(ctx context.Context, workers []Worker, progress func(setconsensus.SweepProgress)) (*setconsensus.Summary, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("coord: no workers")
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	publishExpvar(c)

	c.mu.Lock()
	c.progress = progress
	c.cancel = cancel
	// Seed the checkpoint eagerly: a kill before the first completion
	// must still leave a loadable file.
	if err := c.writeCheckpointLocked(); err != nil {
		c.mu.Unlock()
		return nil, err
	}
	var writer sync.WaitGroup
	stopWriter := make(chan struct{})
	if c.params.CheckpointPath != "" {
		c.ckptWake = make(chan struct{}, 1)
		writer.Add(1)
		go func(wake <-chan struct{}) {
			defer writer.Done()
			c.checkpointWriter(wake, stopWriter)
		}(c.ckptWake)
	}
	c.mu.Unlock()

	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w Worker) {
			defer wg.Done()
			for {
				rs, ok, err := c.claim(runCtx, w.Name())
				if err != nil || !ok {
					return
				}
				sum, serr := w.Sweep(runCtx, rs.Range, func(p setconsensus.SweepProgress) {
					c.liveProgress(rs.Offset, p)
				})
				if serr == nil {
					// The completion path is itself an injection surface:
					// a dropped completion loses a finished range on the
					// way back (the lease expiry re-issues it), a
					// duplicated completion delivers it twice (the merge
					// must stay idempotent).
					if fire, _ := chaos.Fire(c.params.Chaos, chaos.PointDropCompletion); fire {
						continue
					}
					if fire, _ := chaos.Fire(c.params.Chaos, chaos.PointDupCompletion); fire {
						c.complete(runCtx, w.Name(), rs, sum, nil)
					}
				}
				c.complete(runCtx, w.Name(), rs, sum, serr)
			}
		}(w)
	}
	wg.Wait()
	close(stopWriter)
	writer.Wait() // the final state is on disk

	c.mu.Lock()
	defer c.mu.Unlock()
	c.ckptWake = nil
	if c.fatal != nil {
		return nil, c.fatal
	}
	if err := ctx.Err(); err != nil {
		// Interrupted: persist the frontier once more (cheap, idempotent)
		// so the resume sees the freshest state.
		_ = c.writeCheckpointLocked()
		return nil, err
	}
	sum, err := c.mergedLocked()
	if err != nil {
		return nil, err
	}
	if progress != nil {
		c.progress = nil // final snapshot below supersedes the feed
		progress(setconsensus.SweepProgress{Adversaries: c.doneAdv, Runs: c.doneRuns, Total: c.totalLocked()})
	}
	return sum, nil
}

// mergedLocked verifies that the done set tiles [0, end) and folds the
// per-range summaries, in offset order, into one Summary labeled with
// the workload — the same label a monolithic sweep would carry.
func (c *Coordinator) mergedLocked() (*setconsensus.Summary, error) {
	if !c.exhausted {
		return nil, fmt.Errorf("coord: sweep finished without observing the end of the space")
	}
	for off := 0; off < c.end; off += c.params.RangeSize {
		d := c.doneAt(off)
		if d == nil {
			return nil, fmt.Errorf("coord: range at offset %d missing from completed set", off)
		}
		want := c.end - off
		if want > c.params.RangeSize {
			want = c.params.RangeSize
		}
		if d.Count != want {
			return nil, fmt.Errorf("coord: range %s yielded %d adversaries, want %d", d.Range, d.Count, want)
		}
	}
	merged := agg.New(c.workload, c.refs)
	for _, d := range c.done {
		if err := merged.Merge(d.Summary); err != nil {
			return nil, fmt.Errorf("coord: merging range at offset %d: %w", d.Offset, err)
		}
	}
	return merged, nil
}
