package extract

import (
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzExtractStory checks that arbitrary text never panics the pipeline and
// that its outputs respect the canonical-phrase contract.
func FuzzExtractStory(f *testing.F) {
	f.Add("get fit", "I started jogging. Then I joined a gym!")
	f.Add("", "")
	f.Add("g", "1. buy shoes\n- run 5km\nstep 3: stretch")
	f.Add("g", "…unicode — æøå 日本語 then run")
	f.Add("g", strings.Repeat("run and then ", 50))
	f.Fuzz(func(t *testing.T, goal, text string) {
		e := NewExtractor(Options{})
		phrases := e.ExtractStory(Story{Goal: goal, Text: text})
		seen := map[string]bool{}
		for _, p := range phrases {
			if p == "" {
				t.Fatal("empty phrase emitted")
			}
			if seen[p] {
				t.Fatalf("duplicate phrase %q", p)
			}
			seen[p] = true
			if p != strings.ToLower(p) {
				t.Fatalf("phrase %q not lowercased", p)
			}
			if !utf8.ValidString(p) {
				t.Fatalf("phrase %q not valid UTF-8", p)
			}
		}
		// The library builder must accept whatever extraction produces.
		lib, _, kept := e.BuildLibrary([]Story{{Goal: goal, Text: text}})
		if kept > 0 && lib.NumImplementations() != kept {
			t.Fatalf("kept %d but built %d", kept, lib.NumImplementations())
		}
	})
}

// FuzzStem checks stemmer totality and idempotence-after-two-passes.
func FuzzStem(f *testing.F) {
	f.Add("running")
	f.Add("")
	f.Add("ß")
	f.Add("classes")
	f.Add("000seses") // three passes to a fixed point when Stem made one
	f.Fuzz(func(t *testing.T, w string) {
		s1 := Stem(w)
		s2 := Stem(s1)
		s3 := Stem(s2)
		if s3 != s2 {
			t.Fatalf("stem does not converge: %q -> %q -> %q -> %q", w, s1, s2, s3)
		}
	})
}
