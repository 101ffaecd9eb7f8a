package model

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestDeliveredCorrectSender(t *testing.T) {
	f := NewFailurePattern(4)
	for r := 1; r <= 5; r++ {
		for to := 0; to < 4; to++ {
			if !f.Delivered(1, to, r) {
				t.Errorf("correct sender must deliver (round %d, to %d)", r, to)
			}
		}
	}
	if f.Delivered(1, 2, 0) {
		t.Error("round 0 has no messages")
	}
}

func TestDeliveredCrashingSender(t *testing.T) {
	adv := NewBuilder(4, 0).CrashSendingTo(1, 2, 3).MustBuild()
	f := adv.Pattern
	// Before crash round: full delivery.
	if !f.Delivered(1, 0, 1) || !f.Delivered(1, 2, 1) {
		t.Error("round before crash must deliver fully")
	}
	// Crash round: only the delivery set.
	if f.Delivered(1, 0, 2) || f.Delivered(1, 2, 2) {
		t.Error("crash round must deliver only to chosen set")
	}
	if !f.Delivered(1, 3, 2) {
		t.Error("crash round must deliver to chosen receiver 3")
	}
	// After crash: silence.
	if f.Delivered(1, 3, 3) {
		t.Error("post-crash rounds must be silent")
	}
}

func TestSelfDelivery(t *testing.T) {
	adv := NewBuilder(3, 0).CrashSilent(1, 2).MustBuild()
	f := adv.Pattern
	if !f.Delivered(1, 1, 1) {
		t.Error("process hears itself while alive (round 1, crash round 2)")
	}
	// In its crash round 2 (sent at time 1, while still alive) the
	// process still carries its own state forward conceptually, but it is
	// dead at receive time; crash round self-delivery is reported false
	// because the process is not alive at sending time 1? It is: crash
	// round 2 means alive at time 1. Self-delivery holds in round 2.
	if !f.Delivered(1, 1, 2) {
		t.Error("self-delivery in the crash round (alive at send time)")
	}
	if f.Delivered(1, 1, 3) {
		t.Error("no self-delivery after death")
	}
}

func TestActiveCorrectFaulty(t *testing.T) {
	adv := NewBuilder(3, 0).CrashSilent(2, 3).MustBuild()
	f := adv.Pattern
	if !f.Active(2, 0) || !f.Active(2, 2) {
		t.Error("crash round 3 ⟹ active at times 0..2")
	}
	if f.Active(2, 3) {
		t.Error("crash round 3 ⟹ dead at time 3")
	}
	if !f.Correct(0) || f.Correct(2) {
		t.Error("correctness misreported")
	}
	if got := f.CorrectProcs().Elems(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("CorrectProcs = %v", got)
	}
	if f.NumFailures() != 1 {
		t.Errorf("NumFailures = %d", f.NumFailures())
	}
	if f.MaxCrashRound() != 3 {
		t.Errorf("MaxCrashRound = %d", f.MaxCrashRound())
	}
}

func TestValidate(t *testing.T) {
	adv := NewBuilder(3, 0).CrashSilent(1, 1).MustBuild()
	if err := adv.Validate(1, 1); err != nil {
		t.Errorf("valid adversary rejected: %v", err)
	}
	if err := adv.Validate(0, 1); err == nil {
		t.Error("crash bound t=0 should reject one crash")
	}
	bad := NewBuilder(3, 5).MustBuild()
	if err := bad.Validate(-1, 1); err == nil {
		t.Error("value 5 outside {0..1} should be rejected")
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder(3, 0).CrashSilent(1, 1).CrashSilent(1, 2).Build(); err == nil {
		t.Error("double crash must error")
	}
	if _, err := NewBuilder(3, 0).Input(9, 1).Build(); err == nil {
		t.Error("out-of-range input must error")
	}
	if _, err := NewBuilder(3, 0).Inputs(1, 2).Build(); err == nil {
		t.Error("wrong arity Inputs must error")
	}
}

func TestBuilderAllBut(t *testing.T) {
	adv := NewBuilder(4, 0).CrashSendingToAllBut(1, 1, 2).MustBuild()
	f := adv.Pattern
	if f.Delivered(1, 2, 1) {
		t.Error("victim 2 must miss the message")
	}
	if !f.Delivered(1, 0, 1) || !f.Delivered(1, 3, 1) {
		t.Error("non-victims must receive")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := NewBuilder(3, 0).CrashSendingTo(1, 1, 2).MustBuild()
	c := a.Clone()
	c.Inputs[0] = 9
	c.Pattern.Crashes[1].Delivered.Add(0)
	if a.Inputs[0] == 9 {
		t.Error("inputs aliased after Clone")
	}
	if a.Pattern.Crashes[1].Delivered.Contains(0) {
		t.Error("pattern aliased after Clone")
	}
}

func TestString(t *testing.T) {
	a := NewBuilder(3, 1).Input(0, 0).CrashSendingTo(2, 1, 0).MustBuild()
	s := a.String()
	for _, want := range []string{"inputs=[0 1 1]", "2@r1", "{0}"} {
		if !strings.Contains(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
	if got := NewFailurePattern(3).String(); got != "crash()" {
		t.Errorf("empty pattern String = %q", got)
	}
}

func TestHiddenPathFamily(t *testing.T) {
	adv, err := HiddenPath(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if adv.Inputs[1] != 0 {
		t.Error("chain head must hold 0")
	}
	f := adv.Pattern
	if f.CrashRound(1) != 1 || f.CrashRound(2) != 2 {
		t.Errorf("chain crash rounds: %d, %d", f.CrashRound(1), f.CrashRound(2))
	}
	if !f.Delivered(1, 2, 1) || f.Delivered(1, 0, 1) {
		t.Error("head must deliver only to its successor")
	}
	if _, err := HiddenPath(3, 2); err == nil {
		t.Error("too-small n must error")
	}
	if _, err := HiddenPath(5, 0); err == nil {
		t.Error("depth 0 must error")
	}
}

func TestHiddenChainsFamily(t *testing.T) {
	adv, err := HiddenChains(8, 2, 2, []Value{0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// chain 0: procs 1,2,3; chain 1: procs 4,5,6.
	if adv.Inputs[1] != 0 || adv.Inputs[4] != 1 {
		t.Errorf("chain head values: %v", adv.Inputs)
	}
	f := adv.Pattern
	if f.CrashRound(1) != 1 || f.CrashRound(2) != 2 || f.CrashRound(3) != NoCrash {
		t.Error("chain 0 crash rounds wrong")
	}
	if !f.Delivered(1, 2, 1) || f.Delivered(1, 5, 1) {
		t.Error("chain 0 head delivers only within its chain")
	}
	if _, err := HiddenChains(8, 2, 2, []Value{0}, 2); err == nil {
		t.Error("value arity mismatch must error")
	}
	if _, err := HiddenChains(4, 2, 2, []Value{0, 1}, 2); err == nil {
		t.Error("too-small n must error")
	}
}

func TestCollapseFamilyShape(t *testing.T) {
	p := CollapseParams{K: 2, R: 3, ExtraCorrect: 3}
	adv, err := Collapse(p)
	if err != nil {
		t.Fatal(err)
	}
	k, tBound := p.K, CollapseT(p)
	if tBound != 8 {
		t.Fatalf("t = %d, want 8", tBound)
	}
	if adv.N() != tBound+p.ExtraCorrect {
		t.Fatalf("n = %d", adv.N())
	}
	if adv.Pattern.NumFailures() != tBound {
		t.Fatalf("failures = %d, want %d", adv.Pattern.NumFailures(), tBound)
	}
	if err := adv.Validate(tBound, k); err != nil {
		t.Fatalf("invalid adversary: %v", err)
	}
	// Heads crash round 1 delivering to exactly one relay.
	head := p.ExtraCorrect
	relay := p.ExtraCorrect + k
	if adv.Pattern.CrashRound(head) != 1 {
		t.Error("head must crash in round 1")
	}
	if !adv.Pattern.Delivered(head, relay, 1) || adv.Pattern.Delivered(head, 0, 1) {
		t.Error("head delivers only to its relay")
	}
	// Relays crash round 2 with full sends.
	if adv.Pattern.CrashRound(relay) != 2 || !adv.Pattern.Delivered(relay, 0, 2) {
		t.Error("relay must crash round 2 after complete send")
	}
	// Parameter validation.
	for _, bad := range []CollapseParams{{K: 0, R: 2, ExtraCorrect: 2}, {K: 1, R: 1, ExtraCorrect: 2}, {K: 1, R: 2, ExtraCorrect: 1}} {
		if _, err := Collapse(bad); err == nil {
			t.Errorf("params %+v must error", bad)
		}
	}
}

func TestCollapseLowVariant(t *testing.T) {
	adv, err := Collapse(CollapseParams{K: 3, R: 2, ExtraCorrect: 2, LowVariant: true})
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 3; b++ {
		if adv.Inputs[2+b] != b {
			t.Errorf("head %d value = %d, want %d", b, adv.Inputs[2+b], b)
		}
	}
	if adv.Inputs[0] != 3 {
		t.Errorf("correct process value = %d, want 3", adv.Inputs[0])
	}
}

func TestSilentRoundsFamily(t *testing.T) {
	adv, err := SilentRounds(2, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if adv.N() != 9 || adv.Pattern.NumFailures() != 6 {
		t.Fatalf("n=%d failures=%d", adv.N(), adv.Pattern.NumFailures())
	}
	byRound := map[int]int{}
	for _, c := range adv.Pattern.Crashes {
		byRound[c.Round]++
		if c.Delivered.Count() != 0 {
			t.Error("silent crashers must deliver nothing")
		}
	}
	for r := 1; r <= 3; r++ {
		if byRound[r] != 2 {
			t.Errorf("round %d crashes = %d, want 2", r, byRound[r])
		}
	}
	if _, err := SilentRounds(0, 1, 3); err == nil {
		t.Error("k=0 must error")
	}
	if _, err := SilentRounds(1, 1, 1); err == nil {
		t.Error("extraCorrect=0 must error")
	}
}

func TestRandomAdversaryValid(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := RandomParams{N: 6, T: 3, MaxValue: 2, MaxRound: 3}
	for i := 0; i < 200; i++ {
		adv := Random(rng, p)
		if err := adv.Validate(p.T, p.MaxValue); err != nil {
			t.Fatalf("sample %d invalid: %v", i, err)
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	p := RandomParams{N: 5, T: 2, MaxValue: 3, MaxRound: 2}
	a := Random(rand.New(rand.NewSource(42)), p)
	b := Random(rand.New(rand.NewSource(42)), p)
	if a.String() != b.String() {
		t.Errorf("same seed produced different adversaries:\n%s\n%s", a, b)
	}
}

// Property: Delivered is monotone in the sense that a message delivered in
// the crash round implies all earlier rounds delivered too.
func TestQuickDeliveryMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		adv := Random(rng, RandomParams{N: 5, T: 4, MaxValue: 1, MaxRound: 3})
		for from := 0; from < 5; from++ {
			for to := 0; to < 5; to++ {
				if from == to {
					continue
				}
				for r := 2; r <= 4; r++ {
					if adv.Pattern.Delivered(from, to, r) && !adv.Pattern.Delivered(from, to, r-1) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCanonicalStripsUnobservableDeliveries(t *testing.T) {
	// Process 0 crashes in round 1 delivering to 1 (also crashing in
	// round 1, i.e. dead at receipt time 1) and to 2 (alive). The
	// delivery to 1 and any self-delivery are unobservable.
	full := NewBuilder(4, 0).
		CrashSendingTo(0, 1, 1, 2).
		CrashSilent(1, 1).
		MustBuild()
	canon := full.Pattern.Canonical()
	if canon.Crashes[0].Delivered.Contains(1) {
		t.Error("delivery to a dead receiver survived canonicalization")
	}
	if !canon.Crashes[0].Delivered.Contains(2) {
		t.Error("delivery to a live receiver was stripped")
	}
	if canon.CrashRound(0) != 1 || canon.CrashRound(1) != 1 {
		t.Error("canonicalization changed crash rounds")
	}
	// Canonicalization is idempotent.
	if canon.Canonical().String() != canon.String() {
		t.Error("Canonical is not idempotent")
	}
	// The original pattern is untouched.
	if !full.Pattern.Crashes[0].Delivered.Contains(1) {
		t.Error("Canonical mutated its receiver")
	}
}

func TestFingerprintIdentifiesEqualAdversaries(t *testing.T) {
	build := func() *Adversary {
		return NewBuilder(5, 1).Input(0, 0).CrashSendingTo(4, 1, 3).MustBuild()
	}
	if build().Fingerprint() != build().Fingerprint() {
		t.Error("separately built equal adversaries must share a fingerprint")
	}
	// Observably equal but structurally different: delivering to a dead
	// process is unobservable.
	a := NewBuilder(4, 1).CrashSendingTo(0, 1, 2).CrashSilent(1, 1).MustBuild()
	b := NewBuilder(4, 1).CrashSendingTo(0, 1, 1, 2).CrashSilent(1, 1).MustBuild()
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("unobservable delivery changed the fingerprint:\n%s\n%s", a.Fingerprint(), b.Fingerprint())
	}
	// Different inputs or patterns must differ.
	c := NewBuilder(5, 1).Input(0, 1).CrashSendingTo(4, 1, 3).MustBuild()
	if c.Fingerprint() == build().Fingerprint() {
		t.Error("different inputs share a fingerprint")
	}
	d := NewBuilder(5, 1).Input(0, 0).CrashSendingTo(4, 2, 3).MustBuild()
	if d.Fingerprint() == build().Fingerprint() {
		t.Error("different crash rounds share a fingerprint")
	}
}

func TestFamiliesMetadata(t *testing.T) {
	fams := Families()
	if len(fams) != 5 {
		t.Fatalf("got %d families", len(fams))
	}
	seen := map[string]bool{}
	for _, f := range fams {
		if f.Name == "" || f.Summary == "" {
			t.Errorf("incomplete family metadata: %+v", f)
		}
		if seen[f.Name] {
			t.Errorf("duplicate family %q", f.Name)
		}
		seen[f.Name] = true
	}
}

// TestFamiliesRejectOversizedParameters pins the MaxProcs bound: a
// family whose process count, or any single parameter, exceeds it is
// rejected before anything is allocated — including parameters whose
// products would overflow into a small or negative n — while the
// largest admissible family still builds.
func TestFamiliesRejectOversizedParameters(t *testing.T) {
	const huge = 1 << 62
	for name, build := range map[string]func() (*Adversary, error){
		"hiddenpath n":          func() (*Adversary, error) { return HiddenPath(MaxProcs+1, 1) },
		"hiddenchains c":        func() (*Adversary, error) { return HiddenChains(10, huge, 1, nil, 0) },
		"hiddenchains m":        func() (*Adversary, error) { return HiddenChains(10, 1, huge, []Value{1}, 0) },
		"collapse K overflows":  func() (*Adversary, error) { return Collapse(CollapseParams{K: huge, R: 3, ExtraCorrect: 2}) },
		"collapse n":            func() (*Adversary, error) { return Collapse(CollapseParams{K: 1, R: MaxProcs, ExtraCorrect: 2}) },
		"silentrounds k":        func() (*Adversary, error) { return SilentRounds(huge, 4, huge) },
		"silentrounds n":        func() (*Adversary, error) { return SilentRounds(2, MaxProcs/2, 3) },
		"silentrounds extra":    func() (*Adversary, error) { return SilentRounds(1, 1, MaxProcs+1) },
		"collapse extraCorrect": func() (*Adversary, error) { return Collapse(CollapseParams{K: 1, R: 2, ExtraCorrect: huge}) },
	} {
		if adv, err := build(); err == nil {
			t.Errorf("%s: built an adversary of %d processes, want a MaxProcs error", name, adv.N())
		}
	}
	if adv, err := HiddenPath(MaxProcs, MaxProcs-2); err != nil || adv.N() != MaxProcs {
		t.Fatalf("largest hidden path: %v", err)
	}
}
