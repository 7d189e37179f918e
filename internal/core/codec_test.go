package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestInterner(t *testing.T) {
	in := NewInterner(4)
	a := in.Intern("pickles")
	b := in.Intern("nutmeg")
	if a == b {
		t.Fatal("distinct names share an id")
	}
	if got := in.Intern("pickles"); got != a {
		t.Errorf("re-interning returned %d, want %d", got, a)
	}
	if in.Len() != 2 {
		t.Errorf("Len = %d, want 2", in.Len())
	}
	if got := in.Name(a); got != "pickles" {
		t.Errorf("Name(%d) = %q", a, got)
	}
	if got := in.Name(99); got != "" {
		t.Errorf("Name out of range = %q, want empty", got)
	}
	if _, ok := in.Lookup("absent"); ok {
		t.Error("Lookup of absent name succeeded")
	}
	if id, ok := in.Lookup("nutmeg"); !ok || id != b {
		t.Errorf("Lookup(nutmeg) = %d, %v", id, ok)
	}
}

func TestInternerZeroValue(t *testing.T) {
	var in Interner
	if got := in.Intern("x"); got != 0 {
		t.Errorf("first id on zero-value Interner = %d, want 0", got)
	}
}

func TestVocabularyFallbacks(t *testing.T) {
	v := NewVocabulary()
	v.Actions.Intern("carrots")
	if got := v.ActionName(0); got != "carrots" {
		t.Errorf("ActionName(0) = %q", got)
	}
	if got := v.ActionName(7); got != "action#7" {
		t.Errorf("ActionName(7) = %q, want numeric fallback", got)
	}
	if got := v.GoalName(3); got != "goal#3" {
		t.Errorf("GoalName(3) = %q, want numeric fallback", got)
	}
	var nilVocab *Vocabulary
	if got := nilVocab.ActionName(1); got != "action#1" {
		t.Errorf("nil vocabulary ActionName = %q", got)
	}
}

func TestJSONLinesRoundTrip(t *testing.T) {
	const src = `{"goal":"olivier salad","actions":["potatoes","carrots","pickles"]}
{"goal":"mashed potatoes","actions":["potatoes","nutmeg"]}
{"goal":"pan-fried carrots","actions":["carrots","nutmeg"]}
`
	lib, vocab, err := ReadJSONLines(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if lib.NumImplementations() != 3 {
		t.Fatalf("NumImplementations = %d, want 3", lib.NumImplementations())
	}
	potatoes, ok := vocab.Actions.Lookup("potatoes")
	if !ok {
		t.Fatal("potatoes not interned")
	}
	if deg := lib.ActionDegree(ActionID(potatoes)); deg != 2 {
		t.Errorf("degree(potatoes) = %d, want 2", deg)
	}

	var buf bytes.Buffer
	if err := WriteJSONLines(&buf, lib, vocab); err != nil {
		t.Fatal(err)
	}
	lib2, vocab2, err := ReadJSONLines(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if lib2.NumImplementations() != lib.NumImplementations() {
		t.Fatalf("round trip changed implementation count")
	}
	for p := 0; p < lib.NumImplementations(); p++ {
		g1 := vocab.GoalName(lib.Goal(ImplID(p)))
		g2 := vocab2.GoalName(lib2.Goal(ImplID(p)))
		if g1 != g2 {
			t.Errorf("impl %d goal %q != %q", p, g1, g2)
		}
		if lib.ImplLen(ImplID(p)) != lib2.ImplLen(ImplID(p)) {
			t.Errorf("impl %d length changed", p)
		}
	}
}

func TestJSONRoundTripProperty(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 40,
		Values: func(v []reflect.Value, r *rand.Rand) {
			v[0] = reflect.ValueOf(randomLibrary(r, 1+r.Intn(40), 15, 8))
		},
	}
	f := func(lib *Library) bool {
		// Give every id a synthetic name.
		vocab := NewVocabulary()
		for a := 0; a < lib.NumActions(); a++ {
			vocab.Actions.Intern(fmt.Sprintf("action-%d", a))
		}
		for g := 0; g < lib.NumGoals(); g++ {
			vocab.Goals.Intern(fmt.Sprintf("goal-%d", g))
		}
		var buf bytes.Buffer
		if err := WriteJSONLines(&buf, lib, vocab); err != nil {
			return false
		}
		got, _, err := ReadJSONLines(&buf)
		if err != nil || got.NumImplementations() != lib.NumImplementations() {
			return false
		}
		// Names intern in first-seen order, so ids can permute; compare
		// per-implementation multiset sizes and goal-degree histograms.
		for p := 0; p < lib.NumImplementations(); p++ {
			if got.ImplLen(ImplID(p)) != lib.ImplLen(ImplID(p)) {
				return false
			}
		}
		return got.Stats().TotalSlots == lib.Stats().TotalSlots
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestReadJSONLinesRejectsGarbage(t *testing.T) {
	if _, _, err := ReadJSONLines(strings.NewReader("not json")); err == nil {
		t.Error("garbage input accepted")
	}
	if _, _, err := ReadJSONLines(strings.NewReader(`{"goal":"g","actions":[]}`)); err == nil {
		t.Error("empty activity accepted")
	}
}

func BenchmarkBuild(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	type impl struct {
		g GoalID
		a []ActionID
	}
	data := make([]impl, 10000)
	for i := range data {
		acts := make([]ActionID, 2+r.Intn(8))
		for j := range acts {
			acts[j] = ActionID(r.Intn(2000))
		}
		data[i] = impl{GoalID(r.Intn(1000)), acts}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builder := NewBuilder(len(data), 6)
		for _, d := range data {
			if _, err := builder.Add(d.g, d.a); err != nil {
				b.Fatal(err)
			}
		}
		builder.Build()
	}
}

func BenchmarkImplementationSpace(b *testing.B) {
	r := rand.New(rand.NewSource(6))
	lib := randomLibrary(r, 20000, 2000, 500)
	h := []ActionID{3, 77, 500, 1200, 1999}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lib.ImplementationSpace(h)
	}
}
