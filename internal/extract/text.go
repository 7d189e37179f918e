// Package extract reproduces the paper's orthogonal text-processing module
// (Section 3, "Goal Implementation Data sources"): it turns user-generated
// success stories — free-text descriptions of how a goal was achieved — into
// structured goal implementations (goal, action-set) ready for the
// association-based goal model.
//
// The pipeline is deliberately classical and dependency-free:
//
//  1. split the story into candidate steps (sentences, bullet/numbered list
//     items, and clauses joined by sequence connectives like "then");
//  2. locate the verb phrase that anchors each step, using a verb lexicon
//     plus an imperative-position heuristic;
//  3. canonicalize the phrase (lowercase, stopword removal, light suffix
//     stemming) so the same action described twice maps to one action id.
package extract

import (
	"strings"
	"unicode"
)

// Tokenize lowercases text and splits it into word tokens, dropping
// punctuation. Intra-word apostrophes and hyphens are kept ("don't",
// "sugar-free").
func Tokenize(text string) []string {
	var tokens []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			tokens = append(tokens, b.String())
			b.Reset()
		}
	}
	for _, r := range strings.ToLower(text) {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(r)
		case (r == '\'' || r == '-') && b.Len() > 0:
			b.WriteRune(r)
		default:
			flush()
		}
	}
	flush()
	// Trim trailing apostrophes/hyphens left by the permissive rule above.
	for i, t := range tokens {
		tokens[i] = strings.TrimRight(t, "'-")
	}
	return tokens
}

// Stem applies a light suffix-stripping stemmer (a compact Porter-style
// subset) adequate for matching repeated action mentions: plurals, -ing and
// -ed forms collapse to a common stem. Rules apply until none does (each
// shortens the word), so a stem is its own stem: "000seses" → "000".
func Stem(word string) string {
	for w := stemOnce(word); w != word; w = stemOnce(word) {
		word = w
	}
	return word
}

// stemOnce applies the first suffix rule that matches word, if any.
func stemOnce(word string) string {
	w := word
	if len(w) <= 3 {
		return w
	}
	switch {
	case strings.HasSuffix(w, "ies") && len(w) > 4:
		return w[:len(w)-3] + "y"
	case strings.HasSuffix(w, "sses"):
		return w[:len(w)-2]
	case strings.HasSuffix(w, "es") && len(w) > 4 && hasSibilantBefore(w):
		// "boxes" → "box", "dishes" → "dish"; but "vegetables" only drops
		// the final "s".
		return w[:len(w)-2]
	case strings.HasSuffix(w, "s") && !strings.HasSuffix(w, "ss") && !strings.HasSuffix(w, "us"):
		return w[:len(w)-1]
	}
	switch {
	case strings.HasSuffix(w, "ing") && len(w) > 5:
		stem := w[:len(w)-3]
		return undouble(stem)
	case strings.HasSuffix(w, "ed") && len(w) > 4:
		stem := w[:len(w)-2]
		return undouble(stem)
	case strings.HasSuffix(w, "ly") && len(w) > 6:
		// Only strip -ly from long adverbs ("quickly" → "quick"); short
		// words like "daily" keep their surface form.
		return w[:len(w)-2]
	}
	return w
}

// hasSibilantBefore reports whether the stem before a final "es" ends in a
// sibilant sound (s, x, z, ch, sh) — the plurals that actually take "es".
func hasSibilantBefore(w string) bool {
	stem := w[:len(w)-2]
	switch {
	case strings.HasSuffix(stem, "ch"), strings.HasSuffix(stem, "sh"):
		return true
	}
	switch stem[len(stem)-1] {
	case 's', 'x', 'z':
		return true
	}
	return false
}

// undouble collapses a doubled final consonant ("stopp" → "stop") and
// restores a dropped final 'e' heuristically ("mak" → "make").
func undouble(stem string) string {
	n := len(stem)
	if n >= 2 && stem[n-1] == stem[n-2] && !isVowelByte(stem[n-1]) {
		return stem[:n-1]
	}
	// Consonant-vowel-consonant endings usually dropped an 'e' ("make",
	// "bake", "write"); restore it except after w/x/y.
	if n >= 3 && !isVowelByte(stem[n-1]) && isVowelByte(stem[n-2]) && !isVowelByte(stem[n-3]) {
		switch stem[n-1] {
		case 'w', 'x', 'y':
		default:
			return stem + "e"
		}
	}
	return stem
}

func isVowelByte(b byte) bool {
	switch b {
	case 'a', 'e', 'i', 'o', 'u':
		return true
	}
	return false
}

// stopwords are dropped from canonical action phrases.
var stopwords = map[string]bool{
	"a": true, "an": true, "the": true, "my": true, "your": true, "his": true,
	"her": true, "its": true, "our": true, "their": true, "this": true,
	"that": true, "these": true, "those": true, "i": true, "you": true,
	"he": true, "she": true, "it": true, "we": true, "they": true, "me": true,
	"to": true, "of": true, "in": true, "on": true, "at": true, "for": true,
	"with": true, "from": true, "by": true, "about": true, "into": true,
	"and": true, "or": true, "but": true, "so": true, "if": true,
	"is": true, "am": true, "are": true, "was": true, "were": true,
	"be": true, "been": true, "being": true, "will": true, "would": true,
	"can": true, "could": true, "should": true, "must": true, "may": true,
	"have": true, "has": true, "had": true, "do": true, "does": true,
	"did": true, "just": true, "really": true, "very": true, "also": true,
	"some": true, "all": true, "every": true, "each": true, "more": true,
	"then": true, "than": true, "when": true, "while": true, "as": true,
	"up": true, "out": true, "not": true, "no": true, "don't": true,
	"again": true, "still": true, "much": true, "lot": true,
	"finally": true, "first": true, "next": true, "after": true,
	"before": true, "now": true, "day": true, "week": true, "month": true,
}

// IsStopword reports whether the token is in the built-in stopword list.
func IsStopword(tok string) bool { return stopwords[tok] }

// verbLexicon lists stems of verbs that commonly anchor actions in goal
// stories. Steps are matched after stemming, so inflected forms are covered.
var verbLexicon = map[string]bool{
	"start": true, "stop": true, "quit": true, "begin": true, "keep": true,
	"buy": true, "sell": true, "get": true, "take": true, "make": true,
	"cook": true, "bake": true, "eat": true, "drink": true, "run": true,
	"walk": true, "swim": true, "ride": true, "train": true, "practice": true,
	"learn": true, "study": true, "read": true, "write": true, "watch": true,
	"join": true, "enroll": true, "sign": true, "register": true,
	"save": true, "spend": true, "pay": true, "invest": true, "budget": true,
	"call": true, "talk": true, "meet": true, "visit": true, "travel": true,
	"plan": true, "set": true, "track": true, "measure": true, "count": true,
	"avoid": true, "reduce": true, "increase": true, "cut": true,
	"add": true, "use": true, "try": true, "find": true, "search": true,
	"apply": true, "ask": true, "go": true, "attend": true, "finish": true,
	"complete": true, "build": true, "create": true, "organize": true,
	"clean": true, "sleep": true, "wake": true, "exercise": true,
	"stretch": true, "lift": true, "jog": true, "drive": true, "move": true,
	"volunteer": true, "donate": true, "teach": true, "help": true,
	"listen": true, "speak": true, "record": true, "cancel": true,
	"replace": true, "switch": true, "drop": true, "pick": true,
}

// IsVerb reports whether the (unstemmed) token's stem is in the verb
// lexicon.
func IsVerb(tok string) bool { return verbLexicon[Stem(tok)] }
