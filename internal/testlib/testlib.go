// Package testlib provides shared test fixtures: the worked example of the
// paper (Example 3.2 / Figure 1) and small random libraries for property
// tests. It is imported only from _test files.
package testlib

import (
	"math/rand"
	"slices"

	"goalrec/internal/core"
)

// PaperLibrary builds the implementation set of the paper's Example 3.2
// (the online clothing store of Figure 1): five implementations p1..p5 over
// goals g1..g5 and actions a1..a6, satisfying Example 4.3 exactly:
//
//	IS(a1) = {p1,p2,p3,p5},  GS(a1) = {g1,g2,g3,g5},  AS(a1) = {a2,...,a6}.
//
// Ids are zero-based: a1 is action 0 and g1 is goal 0.
func PaperLibrary() *core.Library {
	var b core.Builder
	add := func(goal core.GoalID, actions ...core.ActionID) {
		if _, err := b.Add(goal, actions); err != nil {
			panic(err)
		}
	}
	add(0, 0, 1, 2) // p1 = (g1, {a1, a2, a3})  "meeting friends"
	add(1, 0, 3)    // p2 = (g2, {a1, a4})      "be warm"
	add(2, 0, 2, 4) // p3 = (g3, {a1, a3, a5})  "going to the office"
	add(3, 3, 5)    // p4 = (g4, {a4, a6})
	add(4, 0, 1, 5) // p5 = (g5, {a1, a2, a6})
	return b.Build()
}

// RandomLibrary builds a library with n implementations over actionSpace
// actions and goalSpace goals, with implementation sizes in [1, maxLen].
func RandomLibrary(r *rand.Rand, n, actionSpace, goalSpace, maxLen int) *core.Library {
	b := core.NewBuilder(n, (maxLen+1)/2)
	for i := 0; i < n; i++ {
		size := 1 + r.Intn(maxLen)
		acts := make([]core.ActionID, size)
		for j := range acts {
			acts[j] = core.ActionID(r.Intn(actionSpace))
		}
		if _, err := b.Add(core.GoalID(r.Intn(goalSpace)), acts); err != nil {
			panic(err)
		}
	}
	return b.Build()
}

// MixedLibrary builds a library whose goals come in the three kinds the
// GA-idx tells apart: RandomLibrary's n implementations over goals
// [0, goalSpace), whose implementations mostly share actions; one goal of
// two implementations sharing an action; and after them 1+goalSpace/3 goals
// of one implementation and as many of two to four action-disjoint ones. The
// implementations are added in a random order, so a goal's implementations
// lie scattered over the id space. actionSpace must be at least 2.
func MixedLibrary(r *rand.Rand, n, actionSpace, goalSpace, maxLen int) *core.Library {
	var impls []core.Implementation
	randomActs := func() []core.ActionID {
		acts := make([]core.ActionID, 1+r.Intn(maxLen))
		for j := range acts {
			acts[j] = core.ActionID(r.Intn(actionSpace))
		}
		return acts
	}
	for i := 0; i < n; i++ {
		impls = append(impls, core.Implementation{Goal: core.GoalID(r.Intn(goalSpace)), Actions: randomActs()})
	}
	a := core.ActionID(r.Intn(actionSpace))
	shared := core.GoalID(goalSpace)
	impls = append(impls,
		core.Implementation{Goal: shared, Actions: []core.ActionID{a, core.ActionID(r.Intn(actionSpace))}},
		core.Implementation{Goal: shared, Actions: []core.ActionID{a}})
	extra := 1 + goalSpace/3
	for i := 0; i < extra; i++ {
		impls = append(impls, core.Implementation{Goal: shared + 1 + core.GoalID(i), Actions: randomActs()})
		// A disjoint goal: a random prefix of a permutation of the actions,
		// cut into k non-empty runs.
		g := shared + 1 + core.GoalID(extra+i)
		k := min(2+r.Intn(3), actionSpace)
		perm := r.Perm(actionSpace)[:k+r.Intn(min(actionSpace, k*maxLen)-k+1)]
		cuts := append(r.Perm(len(perm) - 1)[:k-1], len(perm)-1)
		slices.Sort(cuts)
		lo := 0
		for _, c := range cuts {
			acts := make([]core.ActionID, 0, c+1-lo)
			for _, id := range perm[lo : c+1] {
				acts = append(acts, core.ActionID(id))
			}
			impls = append(impls, core.Implementation{Goal: g, Actions: acts})
			lo = c + 1
		}
	}
	r.Shuffle(len(impls), func(i, j int) { impls[i], impls[j] = impls[j], impls[i] })
	b := core.NewBuilder(len(impls), (maxLen+1)/2)
	for _, impl := range impls {
		if _, err := b.Add(impl.Goal, impl.Actions); err != nil {
			panic(err)
		}
	}
	return b.Build()
}

// RandomActivity returns an activity of size in [1, maxLen] over
// actionSpace.
func RandomActivity(r *rand.Rand, actionSpace, maxLen int) []core.ActionID {
	h := make([]core.ActionID, 1+r.Intn(maxLen))
	for i := range h {
		h[i] = core.ActionID(r.Intn(actionSpace))
	}
	return h
}
