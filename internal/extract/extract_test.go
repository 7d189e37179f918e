package extract

import (
	"reflect"
	"strings"
	"testing"

	"goalrec/internal/core"
)

func TestTokenize(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"Hello, World!", []string{"hello", "world"}},
		{"don't stop", []string{"don't", "stop"}},
		{"sugar-free  gum", []string{"sugar-free", "gum"}},
		{"", nil},
		{"...", nil},
		{"step 1: run 5km", []string{"step", "1", "run", "5km"}},
		{"end-", []string{"end"}},
	}
	for _, tt := range tests {
		if got := Tokenize(tt.in); !reflect.DeepEqual(got, tt.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestStem(t *testing.T) {
	tests := []struct{ in, want string }{
		{"running", "run"},
		{"stopped", "stop"},
		{"baking", "bake"},
		{"studies", "study"},
		{"walks", "walk"},
		{"classes", "class"},
		{"quickly", "quick"},
		{"go", "go"},
		{"glass", "glass"},
		{"bus", "bus"},
		{"eat", "eat"},
		{"saved", "save"},
		{"000seses", "000"}, // "000ses", then "000s", then "000"
	}
	for _, tt := range tests {
		if got := Stem(tt.in); got != tt.want {
			t.Errorf("Stem(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestStemIdempotentOnActionVocabulary(t *testing.T) {
	// Stemming an already-stemmed verb must be stable, otherwise repeated
	// canonicalization would drift.
	for v := range verbLexicon {
		if got := Stem(v); Stem(got) != got {
			t.Errorf("Stem not idempotent on %q: %q -> %q", v, got, Stem(got))
		}
	}
}

func TestIsVerb(t *testing.T) {
	for _, v := range []string{"running", "ran?", "buy", "bought"} {
		_ = v // only forms whose stem is in the lexicon match
	}
	if !IsVerb("running") {
		t.Error("running should be a verb")
	}
	if !IsVerb("buys") {
		t.Error("buys should be a verb")
	}
	if IsVerb("potato") {
		t.Error("potato is not a verb")
	}
}

func TestSplitSteps(t *testing.T) {
	text := "1. Join a gym.\n- drink more water\nI started jogging and then I cut sugar. Finally I slept more!"
	steps := SplitSteps(text)
	if len(steps) != 5 {
		t.Fatalf("got %d steps: %q", len(steps), steps)
	}
	wantSub := []string{"join a gym", "drink more water", "jogging", "cut sugar", "slept more"}
	for i, sub := range wantSub {
		if !strings.Contains(steps[i], sub) {
			t.Errorf("step %d = %q, want it to contain %q", i, steps[i], sub)
		}
	}
}

func TestTrimListMarker(t *testing.T) {
	tests := []struct{ in, want string }{
		{"- buy shoes", "buy shoes"},
		{"* run", "run"},
		{"3) stretch", "stretch"},
		{"12. sleep early", "sleep early"},
		{"step 2: call mom", "call mom"},
		{"plain text", "plain text"},
		{"2020 was hard", "2020 was hard"}, // number without list punctuation
	}
	for _, tt := range tests {
		if got := trimListMarker(tt.in); got != tt.want {
			t.Errorf("trimListMarker(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestActionPhrase(t *testing.T) {
	e := NewExtractor(Options{})
	tests := []struct{ in, want string }{
		{"I started jogging every morning", "start jog morn"},
		{"joined a local gym", "join local gym"},
		{"the weather was nice", ""}, // no lexicon verb
		{"", ""},
		{"drink more water", "drink water"},
	}
	for _, tt := range tests {
		if got := e.ActionPhrase(tt.in); got != tt.want {
			t.Errorf("ActionPhrase(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestActionPhraseNegation(t *testing.T) {
	e := NewExtractor(Options{})
	tests := []struct{ in, want string }{
		{"I don't eat sugar anymore", "not-eat sugar anymore"},
		{"never drink soda", "not-drink soda"},
		{"I did not buy snacks", "not-buy snack"},
		{"I eat vegetables", "eat vegetable"}, // no negation
	}
	for _, tt := range tests {
		if got := e.ActionPhrase(tt.in); got != tt.want {
			t.Errorf("ActionPhrase(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
	// An action and its negation map to distinct ids.
	lib, vocab, _ := e.BuildLibrary([]Story{
		{Goal: "healthy", Text: "I eat vegetables. I don't eat sugar."},
	})
	if vocab.Actions.Len() != 2 {
		t.Errorf("actions = %v", actionNames(vocab))
	}
	if lib.NumImplementations() != 1 {
		t.Errorf("implementations = %d", lib.NumImplementations())
	}
}

func TestActionPhraseVerbless(t *testing.T) {
	e := NewExtractor(Options{}).WithVerblessSteps()
	if got := e.ActionPhrase("more vegetables daily"); got == "" {
		t.Error("verbless extractor dropped the step")
	}
	// The base extractor is unchanged (WithVerblessSteps copies).
	base := NewExtractor(Options{})
	if got := base.ActionPhrase("more vegetables daily"); got != "" {
		t.Errorf("base extractor kept verbless step: %q", got)
	}
}

func TestWithSynonyms(t *testing.T) {
	e := NewExtractor(Options{}).WithSynonyms(map[string]string{
		"jogging": "run", // stems: jog → run
		"gym":     "fitness",
	})
	if got := e.ActionPhrase("I started jogging"); got != "start run" {
		t.Errorf("synonym phrase = %q, want %q", got, "start run")
	}
	if got := e.ActionPhrase("joined a gym"); got != "join fitness" {
		t.Errorf("synonym phrase = %q, want %q", got, "join fitness")
	}
	// The base extractor is unaffected.
	base := NewExtractor(Options{})
	if got := base.ActionPhrase("I started jogging"); got != "start jog" {
		t.Errorf("base phrase changed: %q", got)
	}
	// Two stories describing the same action with synonyms now share an id.
	lib, vocab, _ := e.BuildLibrary([]Story{
		{Goal: "fit", Text: "I started jogging."},
		{Goal: "fit", Text: "started running."},
	})
	if vocab.Actions.Len() != 1 {
		t.Errorf("synonyms did not merge: %v", actionNames(vocab))
	}
	if lib.NumImplementations() != 2 {
		t.Errorf("implementations = %d", lib.NumImplementations())
	}
}

func TestActionPhraseMaxWords(t *testing.T) {
	e := NewExtractor(Options{MaxPhraseWords: 2})
	got := e.ActionPhrase("started jogging every single morning before work")
	if n := len(strings.Fields(got)); n != 2 {
		t.Errorf("phrase %q has %d words, want 2", got, n)
	}
}

func TestExtractStoryDeduplicates(t *testing.T) {
	e := NewExtractor(Options{})
	s := Story{
		Goal: "get fit",
		Text: "I started jogging. Then I started jogging again. I joined a gym.",
	}
	got := e.ExtractStory(s)
	if len(got) != 2 {
		t.Fatalf("got %d phrases %q, want 2", len(got), got)
	}
	if got[0] != "start jog" && !strings.HasPrefix(got[0], "start jog") {
		t.Errorf("first phrase = %q", got[0])
	}
}

func TestBuildLibrary(t *testing.T) {
	e := NewExtractor(Options{})
	stories := []Story{
		{Goal: "Get Fit", Text: "I joined a gym. I started jogging daily."},
		{Goal: "get fit", Text: "started jogging daily. cut sugar."},
		{Goal: "learn english", Text: "enrolled in a class. read books in english."},
		{Goal: "empty story", Text: "the weather and the mood."},
	}
	lib, vocab, kept := e.BuildLibrary(stories)
	if kept != 3 {
		t.Fatalf("kept = %d, want 3 (one story yields nothing)", kept)
	}
	if lib.NumImplementations() != 3 {
		t.Fatalf("implementations = %d, want 3", lib.NumImplementations())
	}
	// "Get Fit" and "get fit" are the same goal after normalization.
	if vocab.Goals.Len() != 2 {
		t.Errorf("goals = %d, want 2", vocab.Goals.Len())
	}
	// The shared action "started jogging daily" must map to one id, giving
	// it a connectivity of 2.
	id, ok := vocab.Actions.Lookup("start jog daily")
	if !ok {
		t.Fatalf("canonical action missing; have %v", actionNames(vocab))
	}
	if deg := lib.ActionDegree(core.ActionID(id)); deg != 2 {
		t.Errorf("connectivity of shared action = %d, want 2", deg)
	}
}

// actionNames lists vocab's action names in id order.
func actionNames(vocab *core.Vocabulary) []string {
	names := make([]string, vocab.Actions.Len())
	for id := range names {
		names[id] = vocab.Actions.Name(int32(id))
	}
	return names
}
