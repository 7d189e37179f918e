package goalrec

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// randomNamedBuilder fills a Builder with n random implementations over a
// skewed action vocabulary, the name-level analogue of testlib.RandomLibrary.
func randomNamedBuilder(t *testing.T, r *rand.Rand, n, actionSpace, goalSpace int) *Builder {
	t.Helper()
	b := NewBuilder()
	for i := 0; i < n; i++ {
		size := 1 + r.Intn(6)
		seen := map[string]bool{}
		var acts []string
		for len(acts) < size {
			a := fmt.Sprintf("act-%d", r.Intn(1+r.Intn(actionSpace)))
			if !seen[a] {
				seen[a] = true
				acts = append(acts, a)
			}
		}
		if err := b.AddImplementation(fmt.Sprintf("goal-%d", r.Intn(goalSpace)), acts...); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// canonicalRanking re-sorts a recommendation list into the layout-free
// total order (score desc, name asc). Impact ordering permutes internal ids,
// and id is the strategies' tie-breaker, so the raw order among exact score
// ties is layout-dependent; the (action, score) multiset is not. Queries in
// the layout tests ask for the full ranking (k = all actions) so a tie group
// is never cut mid-way.
func canonicalRanking(recs []Recommendation) []Recommendation {
	out := append([]Recommendation(nil), recs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Action < out[j].Action
	})
	return out
}

// TestWithImpactOrderingPreservesNames verifies that the impact-ordered
// layout is invisible at the name level: dimensions, dictionaries, spaces
// and every strategy's full ranking (up to score-tie order) are identical to
// the plain build.
func TestWithImpactOrderingPreservesNames(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	b := randomNamedBuilder(t, r, 400, 40, 25)
	plain := b.Build()
	ordered := b.Build(WithImpactOrdering())

	if plain.NumImplementations() != ordered.NumImplementations() ||
		plain.NumActions() != ordered.NumActions() ||
		plain.NumGoals() != ordered.NumGoals() {
		t.Fatalf("dimensions changed: plain (%d,%d,%d) ordered (%d,%d,%d)",
			plain.NumImplementations(), plain.NumActions(), plain.NumGoals(),
			ordered.NumImplementations(), ordered.NumActions(), ordered.NumGoals())
	}
	pa, oa := plain.Actions(), ordered.Actions()
	sort.Strings(pa)
	sort.Strings(oa)
	if !reflect.DeepEqual(pa, oa) {
		t.Fatal("action dictionaries diverged")
	}
	for q := 0; q < 20; q++ {
		var h []string
		for i := 0; i < 1+r.Intn(4); i++ {
			h = append(h, fmt.Sprintf("act-%d", r.Intn(40)))
		}
		gs, os := plain.GoalSpace(h), ordered.GoalSpace(h)
		sort.Strings(gs)
		sort.Strings(os)
		if !reflect.DeepEqual(gs, os) {
			t.Fatalf("goal space diverged for %v", h)
		}
		as, oas := plain.ActionSpace(h), ordered.ActionSpace(h)
		sort.Strings(as)
		sort.Strings(oas)
		if !reflect.DeepEqual(as, oas) {
			t.Fatalf("action space diverged for %v", h)
		}
		for _, s := range Strategies() {
			k := plain.NumActions()
			got := canonicalRanking(ordered.MustRecommender(s).Recommend(h, k))
			want := canonicalRanking(plain.MustRecommender(s).Recommend(h, k))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s diverged on impact-ordered library for %v:\ngot  %v\nwant %v", s, h, got, want)
			}
		}
	}
}

// TestImpactOrderedMethod covers the loader-side entry point: re-laying-out
// an already built Library keeps its name-level answers.
func TestImpactOrderedMethod(t *testing.T) {
	lib := groceryLibrary(t)
	ordered := lib.ImpactOrdered()
	h := []string{"potatoes"}
	k := lib.NumActions()
	for _, s := range Strategies() {
		got := canonicalRanking(ordered.MustRecommender(s).Recommend(h, k))
		want := canonicalRanking(lib.MustRecommender(s).Recommend(h, k))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s diverged after ImpactOrdered: got %v want %v", s, got, want)
		}
	}
}

// TestWithPruningMatchesUnpruned drives the block-max scan through the string
// API. The scan is selected from the layout, so the impact-ordered build gets
// it on every bounded Focus query and the plain build never does — asserted
// through a WithPruningStats sink — and on either layout the bounded ranking
// must equal the head of the full ranking (k = −1), which is unbounded and
// therefore always the counter kernel's.
func TestWithPruningMatchesUnpruned(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	b := randomNamedBuilder(t, r, 600, 30, 20)
	for _, layout := range []struct {
		lib   *Library
		scans bool
	}{{b.Build(), false}, {b.Build(WithImpactOrdering()), true}} {
		var stats PruneStats
		for q := 0; q < 15; q++ {
			var h []string
			for i := 0; i < 1+r.Intn(4); i++ {
				h = append(h, fmt.Sprintf("act-%d", r.Intn(30)))
			}
			k := 1 + r.Intn(10)
			for _, s := range Strategies() {
				rec := layout.lib.MustRecommender(s, WithPruningStats(&stats))
				got := rec.Recommend(h, k)
				want := rec.Recommend(h, -1)
				if len(want) > k {
					want = want[:k]
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s bounded ranking diverged from the full one (h=%v k=%d):\ngot  %v\nwant %v", s, h, k, got, want)
				}
			}
		}
		if got := stats.Snapshot().BlocksTotal > 0; got != layout.scans {
			t.Fatalf("block-max scan engaged = %v on a library whose size-sorted flag is %v: %+v",
				got, layout.scans, stats.Snapshot())
		}
	}
}

// TestWithPruningStats checks that a shared sink accumulates counters from
// queries across strategies.
func TestWithPruningStats(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	b := randomNamedBuilder(t, r, 800, 25, 15)
	lib := b.Build(WithImpactOrdering())
	var stats PruneStats
	for _, s := range Strategies() {
		rec := lib.MustRecommender(s, WithPruningStats(&stats))
		rec.Recommend([]string{"act-0", "act-1"}, 3)
	}
	snap := stats.Snapshot()
	if snap.ImplsAssociated == 0 {
		t.Fatalf("shared sink recorded nothing: %+v", snap)
	}
}

// TestPruningSharingKey pins that the stats sink separates engine sharing
// keys: recommenders counting into distinct sinks, or into none, must not
// share one instance.
func TestPruningSharingKey(t *testing.T) {
	base := resolveRecOptions(nil)
	var a, b PruneStats
	sinkA := resolveRecOptions([]RecommenderOption{WithPruningStats(&a)})
	sinkB := resolveRecOptions([]RecommenderOption{WithPruningStats(&b)})
	keys := map[string]bool{}
	for _, o := range []recOptions{base, sinkA, sinkB} {
		keys[o.sharingKey(FocusCloseness)] = true
	}
	if len(keys) != 3 {
		t.Fatalf("sharing keys collided: %d distinct of 3", len(keys))
	}
}
