package setconsensus_test

import (
	"testing"

	setconsensus "setconsensus"
)

// FuzzParseWorkload feeds arbitrary references to the workload parser:
// every string must yield either a source or an error, never a panic —
// and parsing must stay cheap, since it builds every step of a family
// eagerly. The committed corpus under testdata/fuzz/FuzzParseWorkload
// holds references that once panicked or allocated without bound.
func FuzzParseWorkload(f *testing.F) {
	for _, ref := range []string{
		"space:n=4,t=2,r=2,v=0..1",
		"space:n=64,t=63,r=9,v=0..3",
		"collapse:k=3,r=2..6",
		"collapse:k=2,r=2..4,extra=4,low=true",
		"hiddenpath:depth=1..4",
		"hiddenchains:c=1..3,m=2,extra=2",
		"silentrounds:k=2,r=1..4",
		"random:n=6,t=3,count=200,seed=7",
		"collapse:r=1",
		"collapse:bogus=1",
		"space:v=5..2",
		"space:n=4,n=5",
		"",
		":",
		"nosuch:k=1",
	} {
		f.Add(ref)
	}
	f.Fuzz(func(t *testing.T, ref string) {
		src, err := setconsensus.ParseWorkload(ref)
		if (src == nil) == (err == nil) {
			t.Fatalf("ParseWorkload(%q) = (%v, %v): want exactly one of a source and an error", ref, src, err)
		}
		if src != nil && src.Label() == "" {
			t.Fatalf("ParseWorkload(%q) yields a source without a label", ref)
		}
	})
}

// FuzzParseAnalysis feeds arbitrary references to the analysis parser:
// every string must yield either a runnable analysis or an error, never
// a panic.
func FuzzParseAnalysis(f *testing.F) {
	for _, ref := range []string{
		"search:optmin:n=3,t=2,width=2",
		"search:upmin:n=4,t=3,r=3",
		"search:n=3,t=1,r=2,v=0..2,width=1,uniform=true",
		"forced:k=3",
		"lemma2:c=2,m=3,extra=1",
		"search:optmin:width=x",
		"search:optmin:v=3..1",
		"forced:bogus=1",
		"search:",
		"",
		":",
	} {
		f.Add(ref)
	}
	f.Fuzz(func(t *testing.T, ref string) {
		run, err := setconsensus.ParseAnalysis(ref)
		if (run == nil) == (err == nil) {
			t.Fatalf("ParseAnalysis(%q) = (run %v, %v): want exactly one of a run and an error", ref, run != nil, err)
		}
	})
}
