package strategy

// Brute-force oracle tests: each strategy is re-implemented here directly
// from the paper's formulas, with no indexes and no shortcuts, and checked
// against the optimized implementations on random libraries. These are the
// strongest correctness guarantees in the package: any index bug, scratch
// reuse bug or tie-break drift shows up as an oracle divergence.

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"goalrec/internal/core"
	"goalrec/internal/intset"
	"goalrec/internal/testlib"
	"goalrec/internal/vectorspace"
)

// oracleLibrary is the index-free view: a plain list of implementations.
type oracleLibrary struct {
	impls []core.Implementation
}

func newOracle(lib *core.Library) *oracleLibrary {
	o := &oracleLibrary{}
	for p := 0; p < lib.NumImplementations(); p++ {
		o.impls = append(o.impls, lib.Implementation(core.ImplID(p)))
	}
	return o
}

// associated returns the indexes of implementations sharing an action with
// h, by linear scan.
func (o *oracleLibrary) associated(h []core.ActionID) []int {
	var out []int
	for i, impl := range o.impls {
		if intset.IntersectionLen(impl.Actions, h) > 0 {
			out = append(out, i)
		}
	}
	return out
}

// oracleFocus ranks implementations by the measure and pops missing actions,
// exactly as Section 5.1 + C.2.2 describe. Each action carries the score of
// the implementation that emitted it.
func (o *oracleLibrary) oracleFocus(h []core.ActionID, measure FocusMeasure, k int) []ScoredAction {
	type ri struct {
		idx     int
		score   float64
		missing int
	}
	var ranked []ri
	for _, i := range o.associated(h) {
		impl := o.impls[i]
		missing := intset.DifferenceLen(impl.Actions, h)
		if missing == 0 {
			continue
		}
		var score float64
		if measure == Closeness {
			score = 1 / float64(missing)
		} else {
			score = float64(intset.IntersectionLen(impl.Actions, h)) / float64(len(impl.Actions))
		}
		ranked = append(ranked, ri{idx: i, score: score, missing: missing})
	}
	sort.Slice(ranked, func(a, b int) bool {
		if ranked[a].score != ranked[b].score {
			return ranked[a].score > ranked[b].score
		}
		if ranked[a].missing != ranked[b].missing {
			return ranked[a].missing < ranked[b].missing
		}
		return ranked[a].idx < ranked[b].idx
	})
	var out []ScoredAction
	seen := map[core.ActionID]bool{}
	for _, r := range ranked {
		for _, a := range o.impls[r.idx].Actions {
			if intset.Contains(h, a) || seen[a] {
				continue
			}
			seen[a] = true
			out = append(out, ScoredAction{Action: a, Score: r.score})
			if k > 0 && len(out) == k {
				return out
			}
		}
	}
	return out
}

// oracleBreadth accumulates comm — |A_p ∩ H| (Overlap), 1 (Count) or
// |A_p ∪ H| (Union), the three readings of Equation 6 — into every non-H
// member of every associated implementation.
func (o *oracleLibrary) oracleBreadth(h []core.ActionID, w BreadthWeighting, k int) []ScoredAction {
	scores := map[core.ActionID]float64{}
	for _, i := range o.associated(h) {
		impl := o.impls[i]
		comm := float64(intset.IntersectionLen(impl.Actions, h))
		switch w {
		case Count:
			comm = 1
		case Union:
			comm = float64(len(impl.Actions) + len(h) - intset.IntersectionLen(impl.Actions, h))
		}
		for _, a := range impl.Actions {
			if !intset.Contains(h, a) {
				scores[a] += comm
			}
		}
	}
	var out []ScoredAction
	for a, s := range scores {
		out = append(out, ScoredAction{Action: a, Score: s})
	}
	return TopK(out, k)
}

// oracleBestMatch is Algorithms 3–4 by linear scan: the profile counts, per
// goal, the (action of H, implementation) pairs contributing to it
// (Equation 9); every non-H action of an associated implementation is a
// candidate, represented by its per-goal implementation counts restricted to
// the goal space (Equation 8) and ranked by ascending distance. Cosine is
// spelled out on the integer sums, in the expression the strategy documents;
// the other metrics go through vectorspace on the same counts.
func (o *oracleLibrary) oracleBestMatch(h []core.ActionID, metric vectorspace.Metric, k int) []ScoredAction {
	profile := map[int32]int{}
	candidates := map[core.ActionID]bool{}
	for _, i := range o.associated(h) {
		impl := o.impls[i]
		profile[int32(impl.Goal)] += intset.IntersectionLen(impl.Actions, h)
		for _, a := range impl.Actions {
			if !intset.Contains(h, a) {
				candidates[a] = true
			}
		}
	}
	profSq := 0
	for _, c := range profile {
		profSq += c * c
	}
	var out []ScoredAction
	for a := range candidates {
		vec := map[int32]int{}
		for _, impl := range o.impls {
			if _, inSpace := profile[int32(impl.Goal)]; inSpace && intset.Contains(impl.Actions, a) {
				vec[int32(impl.Goal)]++
			}
		}
		var dist float64
		if metric == vectorspace.Cosine {
			dot, sumsq := 0, 0
			for g, c := range vec {
				dot += c * profile[g]
				sumsq += c * c
			}
			dist = 1 - float64(dot)/(math.Sqrt(float64(profSq))*math.Sqrt(float64(sumsq)))
		} else {
			dist = metric.Distance(vectorspace.FromCounts(profile), vectorspace.FromCounts(vec))
		}
		out = append(out, ScoredAction{Action: a, Score: -dist})
	}
	return TopK(out, k)
}

func oracleConfig() *quick.Config {
	return &quick.Config{
		MaxCount: 120,
		Values: func(v []reflect.Value, r *rand.Rand) {
			v[0] = reflect.ValueOf(testlib.RandomLibrary(r, 1+r.Intn(100), 30, 15, 7))
			v[1] = reflect.ValueOf(testlib.RandomActivity(r, 30, 6))
			v[2] = reflect.ValueOf(1 + r.Intn(12))
		},
	}
}

func TestFocusAgainstOracle(t *testing.T) {
	for _, m := range []FocusMeasure{Completeness, Closeness} {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			f := func(lib *core.Library, rawH []core.ActionID, k int) bool {
				h := intset.FromUnsorted(intset.Clone(rawH))
				got := NewFocus(lib, m).Recommend(h, k)
				want := newOracle(lib).oracleFocus(h, m, k)
				return reflect.DeepEqual(got, want)
			}
			if err := quick.Check(f, oracleConfig()); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestBreadthAgainstOracle(t *testing.T) {
	f := func(lib *core.Library, rawH []core.ActionID, k int) bool {
		h := intset.FromUnsorted(intset.Clone(rawH))
		got := NewBreadth(lib).Recommend(h, k)
		want := newOracle(lib).oracleBreadth(h, Overlap, k)
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, oracleConfig()); err != nil {
		t.Error(err)
	}
}

// TestShardedFocusAgainstOracle forces the multi-worker kernel on every
// query — four workers with a shard threshold of one posting — so the
// sharded accumulate/merge/select paths face the oracle even on the tiny
// random libraries quick generates.
func TestShardedFocusAgainstOracle(t *testing.T) {
	for _, m := range []FocusMeasure{Completeness, Closeness} {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			f := func(lib *core.Library, rawH []core.ActionID, k int) bool {
				h := intset.FromUnsorted(intset.Clone(rawH))
				fc := NewFocus(lib, m)
				fc.SetConcurrency(4, 1)
				got := fc.Recommend(h, k)
				want := newOracle(lib).oracleFocus(h, m, k)
				return reflect.DeepEqual(got, want)
			}
			if err := quick.Check(f, oracleConfig()); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestShardedBreadthAgainstOracle(t *testing.T) {
	f := func(lib *core.Library, rawH []core.ActionID, k int) bool {
		h := intset.FromUnsorted(intset.Clone(rawH))
		b := NewBreadth(lib)
		b.SetConcurrency(4, 1)
		got := b.Recommend(h, k)
		want := newOracle(lib).oracleBreadth(h, Overlap, k)
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, oracleConfig()); err != nil {
		t.Error(err)
	}
}

// TestBreadthScratchReuse exercises the pooled scratch across many
// consecutive queries on one recommender instance — a stale-scratch bug
// would leak scores between queries.
func TestBreadthScratchReuse(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	lib := testlib.RandomLibrary(r, 120, 30, 15, 7)
	b := NewBreadth(lib)
	o := newOracle(lib)
	for i := 0; i < 200; i++ {
		h := intset.FromUnsorted(testlib.RandomActivity(r, 30, 6))
		got := b.Recommend(h, 8)
		want := o.oracleBreadth(h, Overlap, 8)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d diverged from oracle:\ngot  %v\nwant %v", i, got, want)
		}
	}
}

// TestShardedScratchReuse hammers one sharded Focus and one sharded Breadth
// instance with interleaved canceled and completed queries: every aborted
// query must leave the pooled counters, touched lists and per-worker score
// accumulators clean, so the completed queries stay oracle-exact.
func TestShardedScratchReuse(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	lib := testlib.RandomLibrary(r, 150, 30, 15, 7)
	o := newOracle(lib)
	fc := NewFocus(lib, Completeness)
	fc.SetConcurrency(4, 1)
	br := NewBreadth(lib)
	br.SetConcurrency(4, 1)
	for i := 0; i < 200; i++ {
		h := intset.FromUnsorted(testlib.RandomActivity(r, 30, 6))
		if i%3 == 1 {
			// Cancel at the first checkpoint past entry; the next queries
			// must be unaffected by whatever partial state this one built.
			fc.RecommendContext(newCancelAfterPolls(1), h, 8)
			br.RecommendContext(newCancelAfterPolls(1), h, 8)
		}
		if got, want := fc.Recommend(h, 8), o.oracleFocus(h, Completeness, 8); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: sharded focus diverged from oracle:\ngot  %v\nwant %v", i, got, want)
		}
		if got, want := br.Recommend(h, 8), o.oracleBreadth(h, Overlap, 8); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: sharded breadth diverged from oracle:\ngot  %v\nwant %v", i, got, want)
		}
	}
}

// TestBestMatchScratchReuse does the same for the dense cosine scratch,
// including the version-stamp path.
func TestBestMatchScratchReuse(t *testing.T) {
	r := rand.New(rand.NewSource(100))
	lib := testlib.RandomLibrary(r, 120, 30, 15, 7)
	bm := NewBestMatch(lib)
	for i := 0; i < 200; i++ {
		h := intset.FromUnsorted(testlib.RandomActivity(r, 30, 6))
		first := bm.Recommend(h, 8)
		second := bm.Recommend(h, 8)
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("query %d not idempotent across scratch reuse", i)
		}
	}
}
