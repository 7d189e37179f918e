package strategy

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"goalrec/internal/core"
	"goalrec/internal/intset"
	"goalrec/internal/testlib"
	"goalrec/internal/vectorspace"
)

// checkViewState is the one view invariant: every array equals the library's
// own from-scratch definition — H, IS(H), cnt[p] = |A_p ∩ H|, and the
// derived candidate pool, goal space and Best Match profile — and the whole
// state equals a fresh NewCounterView over the same history.
func checkViewState(t *testing.T, lib *core.Library, v *CounterView, h []core.ActionID) {
	t.Helper()
	sortedH := intset.FromUnsorted(intset.Clone(h))
	if !sameIDs(v.h, sortedH) {
		t.Fatalf("view activity = %v, want %v", v.h, sortedH)
	}
	var (
		tally core.GoalTally
		sc    core.CandidateScratch
	)
	tally.Reset(lib.NumGoals())
	if got, want := lib.AppendImplCandidates(nil, &sc, v.impls, v.cnt, v.h, &tally), lib.Candidates(h); !sameIDs(got, want) {
		t.Fatalf("view candidates = %v, want %v (h=%v)", got, want, h)
	}
	if want := lib.ImplementationSpace(sortedH); !sameIDs(v.impls, want) {
		t.Fatalf("view implementation space = %v, want %v (h=%v)", v.impls, want, h)
	}
	for i, p := range v.impls {
		if want := intset.IntersectionLen(lib.Actions(p), v.h); int(v.cnt[i]) != want {
			t.Fatalf("cnt[%v] = %d, want %d", p, v.cnt[i], want)
		}
	}
	if got, want := intset.FromUnsorted(intset.Clone(tally.Goals)), lib.GoalSpace(sortedH); !sameIDs(got, want) {
		t.Fatalf("view goal space = %v, want %v (h=%v)", got, want, h)
	}
	profile := map[core.GoalID]int32{}
	for _, a := range sortedH {
		for _, p := range lib.ImplsOfAction(a) {
			profile[lib.Goal(p)]++
		}
	}
	for i, g := range tally.Goals {
		if tally.Counts[i] != profile[g] {
			t.Fatalf("profile[%v] = %d, want %d (h=%v)", g, tally.Counts[i], profile[g], h)
		}
	}
	if fresh := NewCounterView(lib, h); !sameView(v, fresh) {
		t.Fatalf("view diverged from a fresh build (h=%v)\nview:  %+v\nfresh: %+v", h, v, fresh)
	}
}

// sameView reports whether two views hold the same state.
func sameView(a, b *CounterView) bool {
	return a.lib == b.lib && sameIDs(a.h, b.h) &&
		sameIDs(a.impls, b.impls) && slices.Equal(a.cnt, b.cnt)
}

func sameIDs[T core.ActionID | core.GoalID | core.ImplID](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCounterViewMatchesFromScratch builds views over random libraries and
// asserts the view's state and every strategy's scoring of it (the table's
// view sources, against the oracle).
func TestCounterViewMatchesFromScratch(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		n := 1 + r.Intn(900)
		actionSpace := 2 + r.Intn(28)
		lib := testlib.RandomLibrary(r, n, actionSpace, 18, 8)
		for q := 0; q < 4; q++ {
			h := testlib.RandomActivity(r, actionSpace+4, 7) // may include unknown ids
			v := NewCounterView(lib, h)
			checkViewState(t, lib, v, h)
			for _, k := range []int{-1, 1, 3, 10} {
				checkViewEquiv(t, lib, v, h, k)
			}
		}
	}
}

// TestCounterViewApplyMatchesRebuild grows one view action by action —
// with deliberate duplicates — and pins every intermediate state against a
// fresh from-scratch build over the same prefix.
func TestCounterViewApplyMatchesRebuild(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 15; trial++ {
		actionSpace := 2 + r.Intn(20)
		lib := testlib.RandomLibrary(r, 1+r.Intn(600), actionSpace, 12, 7)
		v := NewCounterView(lib, nil)
		var h []core.ActionID
		for step := 0; step < 12; step++ {
			a := core.ActionID(r.Intn(actionSpace + 2))
			dup := intset.Contains(intset.FromUnsorted(intset.Clone(h)), a)
			if got := v.Apply(a); got == dup {
				t.Fatalf("Apply(%d) = %v with h=%v", a, got, h)
			}
			h = append(h, a)

			checkViewState(t, lib, v, h)
			checkViewEquiv(t, lib, v, h, 5)
		}
	}
}

// TestRecommendViewDispatch covers the package-level dispatcher: cache
// wrappers unwrap to the view path, a recommender without a driver falls
// back to RecommendContext, and a view scored against a strategy over a
// different snapshot is rejected.
func TestRecommendViewDispatch(t *testing.T) {
	lib := testlib.PaperLibrary()
	h := []core.ActionID{0, 3}
	v := NewCounterView(lib, h)

	cached := NewCached(NewFocus(lib, Closeness), 8)
	got, err := RecommendView(context.Background(), cached, v, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := NewFocus(lib, Closeness).Recommend(h, 3)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cached dispatch = %v, want %v", got, want)
	}
	if hits, misses := cached.Stats(); hits != 0 || misses != 0 {
		t.Fatalf("view query went through the cache (hits=%d misses=%d)", hits, misses)
	}

	// A recommender without a scoring driver, as the baselines are, falls
	// back to a from-scratch query over the view's activity.
	baseline := &countingRecommender{inner: NewBreadthWeighted(lib, Count)}
	cachedBaseline := NewCached(baseline, 8)
	got, err = RecommendView(context.Background(), cachedBaseline, v, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, _ = RecommendContext(context.Background(), NewBreadthWeighted(lib, Count), h, 3)
	if !reflect.DeepEqual(got, want) || baseline.calls != 1 {
		t.Fatalf("baseline dispatch = %v after %d calls, want %v after 1", got, baseline.calls, want)
	}
	if hits, misses := cachedBaseline.Stats(); hits != 0 || misses != 0 {
		t.Fatalf("baseline view query went through the cache (hits=%d misses=%d)", hits, misses)
	}

	other := testlib.RandomLibrary(rand.New(rand.NewSource(1)), 20, 8, 4, 4)
	for name, rec := range map[string]Recommender{
		"focus":                NewFocus(other, Completeness),
		"breadth":              NewBreadth(other),
		"best-match":           NewBestMatch(other),
		"best-match-manhattan": NewBestMatchMetric(other, vectorspace.Manhattan),
	} {
		if _, err := RecommendView(context.Background(), rec, v, 3); err != ErrViewLibrary {
			t.Fatalf("%s: stale view accepted (err=%v)", name, err)
		}
	}
}
