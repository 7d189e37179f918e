package core

import (
	"strings"
	"testing"
)

func namedFixture(t *testing.T) (*Library, *Vocabulary) {
	t.Helper()
	vocab := NewVocabulary()
	var b Builder
	add := func(goal string, actions ...string) {
		t.Helper()
		ids := make([]ActionID, len(actions))
		for i, a := range actions {
			ids[i] = ActionID(vocab.Actions.Intern(a))
		}
		if _, err := b.Add(GoalID(vocab.Goals.Intern(goal)), ids); err != nil {
			t.Fatal(err)
		}
	}
	add("olivier salad", "potatoes", "carrots", "pickles")
	add("mashed potatoes", "potatoes", "nutmeg")
	return b.Build(), vocab
}

func TestWriteDOT(t *testing.T) {
	lib, vocab := namedFixture(t)
	dot := DOTString(lib, vocab, 0)
	for _, want := range []string{
		"graph goalmodel {",
		`"p1: olivier salad"`,
		`"potatoes"`,
		"impl0 -- act0;",
		"}",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	// Shared actions render one node only.
	if strings.Count(dot, `label="potatoes"`) != 1 {
		t.Errorf("potatoes node duplicated:\n%s", dot)
	}
}

func TestWriteDOTCapsImplementations(t *testing.T) {
	lib, vocab := namedFixture(t)
	dot := DOTString(lib, vocab, 1)
	if strings.Contains(dot, "impl1 ") {
		t.Errorf("cap ignored:\n%s", dot)
	}
	if !strings.Contains(dot, "impl0 ") {
		t.Errorf("first implementation missing:\n%s", dot)
	}
}
