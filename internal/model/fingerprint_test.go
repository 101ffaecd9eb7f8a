package model

import (
	"encoding/hex"
	"math/rand"
	"testing"

	"setconsensus/internal/bitset"
)

// TestPatternFingerprintCanonicalEquivalence pins the property caches
// keyed by fingerprint rest on: a raw pattern and its Canonical() form
// fingerprint identically, and observably different patterns do not.
// The randomized sweep compares fingerprint equality against
// canonical-string equality over many pattern pairs.
func TestPatternFingerprintCanonicalEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	randomPat := func() *FailurePattern {
		n := 3 + rng.Intn(3)
		pat := NewFailurePattern(n)
		for _, p := range rng.Perm(n)[:rng.Intn(3)] {
			del := bitset.New(n)
			for q := 0; q < n; q++ {
				if rng.Intn(2) == 0 {
					del.Add(q)
				}
			}
			pat.Crashes[p] = Crash{Round: 1 + rng.Intn(3), Delivered: del}
		}
		return pat
	}
	for trial := 0; trial < 500; trial++ {
		a, b := randomPat(), randomPat()
		if got, want := a.Fingerprint() == b.Fingerprint(), a.Canonical().String() == b.Canonical().String(); got != want {
			t.Fatalf("fingerprint equality %v but canonical-string equality %v for\n%s\n%s", got, want, a, b)
		}
		if a.Fingerprint() != a.Canonical().Fingerprint() {
			t.Fatalf("pattern and its canonical form fingerprint differently: %s", a)
		}
	}
}

// TestAppendFingerprintReusesBuffer asserts the append form builds into
// the provided buffer without allocating when capacity suffices.
func TestAppendFingerprintReusesBuffer(t *testing.T) {
	pat := NewFailurePattern(4)
	pat.Crashes[1] = Crash{Round: 2, Delivered: bitset.New(4).Add(0).Add(2)}
	buf := make([]byte, 0, 128)
	avg := testing.AllocsPerRun(50, func() {
		buf = pat.AppendFingerprint(buf[:0])
	})
	if avg != 0 {
		t.Fatalf("AppendFingerprint allocated %.1f objects per call with a warm buffer", avg)
	}
}

// TestAppendFingerprintBytes pins the encoding byte for byte — the
// empty pattern, single-word patterns with dead-receiver and
// self-delivery bits to strip, more crashers than the stack sort buffer
// holds, and a multi-word pattern — so refactors of the encoder cannot
// silently re-key caches that hold fingerprints.
func TestAppendFingerprintBytes(t *testing.T) {
	// crash lists the crasher, its round and its delivery set.
	crash := func(n int, spec ...[]int) *FailurePattern {
		f := NewFailurePattern(n)
		for _, c := range spec {
			d := bitset.New(n)
			for _, q := range c[2:] {
				d.Add(q)
			}
			f.Crashes[c[0]] = Crash{Round: c[1], Delivered: d}
		}
		return f
	}
	for _, tc := range []struct {
		pat  *FailurePattern
		want string
	}{
		{crash(3), ""},
		{crash(4, []int{1, 2, 0, 2, 3}), "01020d00000000000000"},
		{crash(4, []int{2, 1, 0, 1, 2, 3}, []int{0, 1, 1, 2}, []int{3, 3, 0, 1, 2}),
			"0001020000000000000002010a0000000000000003030200000000000000"},
		{crash(5, []int{4, 2, 0, 1, 2, 3}, []int{1, 1, 0, 2, 4}), "0101150000000000000004020d00000000000000"},
		{crash(10, []int{0, 1, 1}, []int{1, 2, 0, 2}, []int{2, 3, 0, 1, 3}, []int{3, 1, 4}, []int{4, 2, 5, 0},
			[]int{5, 1, 6}, []int{6, 3, 7, 0}, []int{7, 2, 8}, []int{8, 1, 9, 0}),
			"000102000000000000000102040000000000000002030000000000000000030110000000000000000402000000000000000005014000000000000000060300000000000000000702000000000000000008010002000000000000"},
		{crash(70, []int{3, 2, 0, 3, 65, 69}, []int{65, 1, 3, 64, 66}, []int{69, 2, 1, 68}),
			"030201000000000000000000000000000000410108000000000000000500000000000000450202000000000000001000000000000000"},
	} {
		if got := hex.EncodeToString(tc.pat.AppendFingerprint(nil)); got != tc.want {
			t.Errorf("%s: fingerprint %s, want %s", tc.pat, got, tc.want)
		}
	}
}
