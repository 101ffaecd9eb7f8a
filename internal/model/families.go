package model

import (
	"fmt"
	"math/rand"
)

// This file holds the named adversary families used throughout the
// experiments. Each corresponds to a figure or proof construction of the
// paper; the comments state which.

// FamilyInfo is the registration metadata of one named adversary family:
// the canonical workload name and a one-line summary. The root package's
// workload registry builds its built-in entries from Families, so the
// model package stays the single source of truth for what exists.
type FamilyInfo struct {
	Name    string
	Summary string
}

// MaxProcs bounds the process count of a family adversary: the
// constructors allocate per-process state up front.
const MaxProcs = 1024

// tooLarge rejects a family adversary of more than MaxProcs processes.
// The parameters n was derived from must each be at most MaxProcs too,
// which rules out an n that overflowed into range.
func tooLarge(family string, n int, params ...int) error {
	ok := n <= MaxProcs
	for _, v := range params {
		ok = ok && v <= MaxProcs
	}
	if !ok {
		return fmt.Errorf("model: %s needs n and its parameters ≤ %d, got n=%d from %v", family, MaxProcs, n, params)
	}
	return nil
}

// Families lists the named adversary families of this package in
// presentation order.
func Families() []FamilyInfo {
	return []FamilyInfo{
		{"hiddenpath", "Fig. 1 hidden path — a chain of crashes hides the lone low value"},
		{"hiddenchains", "Fig. 2 / Lemma 2 hidden chains — hidden capacity c at time m"},
		{"collapse", "Fig. 4 separation family — u-Pmin decides at 2, baselines need ⌊t/k⌋+1"},
		{"silentrounds", "worst-case family — k silent crashes per round, bounds tight"},
		{"random", "seeded random adversaries — uniform inputs, crashes, deliveries"},
	}
}

// HiddenPath builds the Fig. 1 adversary for (1-set) consensus: a chain of
// processes crashing one per round, each passing the lone initial value 0
// to its successor only, so that the observer (process 0) has a hidden path
// up to time `depth` and never learns ∃0 while the chain survives.
//
// Layout over n ≥ depth+2 processes: process 1+ℓ is the chain process for
// layer ℓ (ℓ = 0..depth−1); it crashes in round ℓ+1 delivering only to
// process 2+ℓ. Process 1 holds value 0; everyone else holds value 1.
func HiddenPath(n, depth int) (*Adversary, error) {
	if depth < 1 {
		return nil, fmt.Errorf("model: HiddenPath needs depth ≥ 1, got %d", depth)
	}
	if err := tooLarge("HiddenPath", n); err != nil {
		return nil, err
	}
	if n < depth+2 {
		return nil, fmt.Errorf("model: HiddenPath needs n ≥ depth+2 = %d, got %d", depth+2, n)
	}
	b := NewBuilder(n, 1).Input(1, 0)
	for l := 0; l < depth; l++ {
		b.CrashSendingTo(1+l, l+1, 2+l)
	}
	return b.Build()
}

// HiddenChains builds the Fig. 2 / Lemma 2 adversary: c disjoint hidden
// chains of depth m. Chain b consists of witnesses w(b,0), …, w(b,m); for
// ℓ < m the witness w(b,ℓ) crashes in round ℓ+1 delivering only to
// w(b,ℓ+1), so ⟨w(b,ℓ), ℓ⟩ is hidden from every process outside the chain,
// and the observer (process 0) has hidden capacity ≥ c at time m. Chain b's
// head starts with chainValues[b]; everyone else starts with defaultValue.
//
// Witness numbering: w(b,ℓ) = 1 + b*(m+1) + ℓ over n processes,
// n ≥ 1 + c*(m+1).
func HiddenChains(n, c, m int, chainValues []Value, defaultValue Value) (*Adversary, error) {
	if c < 1 || m < 1 {
		return nil, fmt.Errorf("model: HiddenChains needs c ≥ 1, m ≥ 1 (got c=%d m=%d)", c, m)
	}
	if err := tooLarge("HiddenChains", n, c, m); err != nil {
		return nil, err
	}
	if len(chainValues) != c {
		return nil, fmt.Errorf("model: HiddenChains needs %d chain values, got %d", c, len(chainValues))
	}
	if n < 1+c*(m+1) {
		return nil, fmt.Errorf("model: HiddenChains needs n ≥ %d, got %d", 1+c*(m+1), n)
	}
	b := NewBuilder(n, defaultValue)
	for chain := 0; chain < c; chain++ {
		head := ChainWitness(chain, 0, m)
		b.Input(head, chainValues[chain])
		for l := 0; l < m; l++ {
			b.CrashSendingTo(ChainWitness(chain, l, m), l+1, ChainWitness(chain, l+1, m))
		}
	}
	return b.Build()
}

// ChainWitness returns the process index of witness w(b,ℓ) in the
// HiddenChains layout with depth m.
func ChainWitness(b, l, m int) Proc { return 1 + b*(m+1) + l }

// CollapseParams configures the Fig. 4 separation family; see Collapse.
type CollapseParams struct {
	K            int  // coordination degree k ≥ 1
	R            int  // crash rounds; t = K*(R+1), R ≥ 2
	ExtraCorrect int  // number of never-crashing processes, ≥ 2
	LowVariant   bool // chain heads carry low values 0..K−1 instead of K
}

// Collapse builds the headline Fig. 4-style family: an adversary on which
// every correct process discovers ≥ k new failures in every round
// 1..⌊t/k⌋ (so every literature protocol that waits while "at least k new
// failures per round" remains undecided until ⌊t/k⌋+1), yet the hidden
// capacity of every correct process collapses to 0 at time 2, letting
// u-Pmin[k] decide at time 2 (time 3 in the low variant) and Optmin[k] at
// time 2.
//
// Construction (t = k(R+1), n = t + ExtraCorrect):
//   - round 1: k "chain heads" c_b crash, each delivering only to its
//     relay d_b — every correct process misses them (k failures seen at
//     time 1), and their initial states stay hidden for one round;
//   - round 2: the k relays d_b crash after a complete send — their crash
//     is invisible until time 3, but their round-2 broadcast reveals every
//     ⟨c_b, 0⟩, emptying hidden layer 0 — and k auxiliary processes e_b
//     crash silently, keeping the time-2 new-failure count at k;
//   - rounds 3..R: k silent crashes per round keep the per-round failure
//     count at k (time 3 sees 2k: the d's silence plus the round-3 batch).
//
// All inputs are K except, in the low variant, head c_b holds value b.
func Collapse(p CollapseParams) (*Adversary, error) {
	if p.K < 1 {
		return nil, fmt.Errorf("model: Collapse needs K ≥ 1, got %d", p.K)
	}
	if p.R < 2 {
		return nil, fmt.Errorf("model: Collapse needs R ≥ 2, got %d", p.R)
	}
	if p.ExtraCorrect < 2 {
		return nil, fmt.Errorf("model: Collapse needs ExtraCorrect ≥ 2, got %d", p.ExtraCorrect)
	}
	k := p.K
	t := k * (p.R + 1)
	n := t + p.ExtraCorrect
	if err := tooLarge("Collapse", n, p.K, p.R, p.ExtraCorrect); err != nil {
		return nil, err
	}
	b := NewBuilder(n, k)
	base := p.ExtraCorrect // crashers start after the correct block
	heads := base
	relays := base + k
	silent2 := base + 2*k
	for i := 0; i < k; i++ {
		if p.LowVariant {
			b.Input(heads+i, i)
		}
		b.CrashSendingTo(heads+i, 1, relays+i)
		b.CrashSendingToAll(relays+i, 2)
		b.CrashSilent(silent2+i, 2)
	}
	next := base + 3*k
	for round := 3; round <= p.R; round++ {
		for i := 0; i < k; i++ {
			b.CrashSilent(next, round)
			next++
		}
	}
	return b.Build()
}

// CollapseT returns the crash bound t for the family (all of which crash).
func CollapseT(p CollapseParams) int { return p.K * (p.R + 1) }

// SilentRounds builds the worst-case family: k silent crashes in every
// round 1..R, all inputs = k. Here hidden layer ℓ keeps exactly k hidden
// nodes forever (the round-(ℓ+1) crashers), so hidden capacity stays
// exactly k until the crashes stop, and both Optmin[k] and u-Pmin[k]
// decide only at time R+1 = ⌊f/k⌋+1 — the Prop. 1 / Thm. 3 bounds are
// tight on this family. Tightness needs extraCorrect ≥ k+1: at time R the
// current layer must still hold ≥ k hidden nodes, and it holds exactly
// extraCorrect−1 of them.
func SilentRounds(k, rounds, extraCorrect int) (*Adversary, error) {
	if k < 1 || rounds < 1 {
		return nil, fmt.Errorf("model: SilentRounds needs k ≥ 1, rounds ≥ 1 (got k=%d rounds=%d)", k, rounds)
	}
	if extraCorrect < k+1 {
		return nil, fmt.Errorf("model: SilentRounds needs extraCorrect ≥ k+1 = %d, got %d", k+1, extraCorrect)
	}
	n := k*rounds + extraCorrect
	if err := tooLarge("SilentRounds", n, k, rounds, extraCorrect); err != nil {
		return nil, err
	}
	b := NewBuilder(n, k)
	next := extraCorrect
	for r := 1; r <= rounds; r++ {
		for i := 0; i < k; i++ {
			b.CrashSilent(next, r)
			next++
		}
	}
	return b.Build()
}

// RandomParams bounds the Random adversary sampler.
type RandomParams struct {
	N        int // processes
	T        int // max crashes
	MaxValue int // values drawn from {0..MaxValue}
	MaxRound int // crash rounds drawn from {1..MaxRound}
}

// Random samples an adversary: a uniformly random number of crashes in
// [0, T], each with a uniform crash round and an independently random
// delivery subset, over uniform inputs. Deterministic given rng's seed.
func Random(rng *rand.Rand, p RandomParams) *Adversary {
	b := NewBuilder(p.N, 0)
	for i := 0; i < p.N; i++ {
		b.Input(i, rng.Intn(p.MaxValue+1))
	}
	crashes := 0
	if p.T > 0 {
		crashes = rng.Intn(p.T + 1)
	}
	perm := rng.Perm(p.N)
	for c := 0; c < crashes; c++ {
		victim := perm[c]
		round := 1 + rng.Intn(p.MaxRound)
		var recv []Proc
		for q := 0; q < p.N; q++ {
			if q != victim && rng.Intn(2) == 0 {
				recv = append(recv, q)
			}
		}
		b.CrashSendingTo(victim, round, recv...)
	}
	return b.MustBuild()
}
