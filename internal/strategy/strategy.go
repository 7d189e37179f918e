// Package strategy implements the goal-based recommendation strategies of
// Sections 5.1–5.3 of the paper: Focus (completeness and closeness
// variants), Breadth, and Best Match. Each strategy ranks the candidate
// actions AS(H) − H of a user activity H against a shared immutable
// *core.Library and returns a top-k list.
//
// All strategies are deterministic: score ties are broken by ascending
// action id, so identical inputs always produce identical lists.
package strategy

import (
	"slices"

	"goalrec/internal/core"
)

// ScoredAction is one ranked recommendation: an action and the score the
// strategy assigned it. Higher scores rank earlier for score-ascending
// strategies (Focus, Breadth); Best Match converts its distance into a
// negated score so that "higher is better" holds uniformly.
type ScoredAction struct {
	Action core.ActionID
	Score  float64
}

// Recommender ranks candidate actions for a user activity. Implementations
// are safe for concurrent use.
type Recommender interface {
	// Name returns a short stable identifier ("focus-cmp", "breadth", ...).
	Name() string
	// Recommend returns up to k actions not present in activity, ranked
	// best-first. The activity may be unsorted and contain duplicates.
	// k == 0 yields nil; a negative k returns the full ranked candidate
	// pool.
	Recommend(activity []core.ActionID, k int) []ScoredAction
}

// TopK ranks scored candidates best-first (score descending, action id
// ascending on ties) and keeps the best k; a negative k keeps them all. The
// result is a new exact-size slice (len == cap ≤ k) the caller owns — scored
// is left untouched and is not pinned by it. It is exported for the baseline
// recommenders, which share the deterministic ranking contract.
func TopK(scored []ScoredAction, k int) []ScoredAction {
	if k == 0 {
		return nil
	}
	sel := newSelector(k, len(scored))
	for _, c := range scored {
		sel.offer(c)
	}
	return sel.sorted()
}

// ranksBefore is the shared ranking order: score descending, then action id
// ascending. It is total over distinct actions.
func ranksBefore(a, b ScoredAction) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Action < b.Action
}

// selector is the one selection stage of every Best Match and Breadth loop
// (DESIGN.md, "Scoring kernels & batching"): candidates are offered while
// they are scored and only the best bound() of them are ever held, so no path
// materializes a pool-sized []ScoredAction for a retainer to pin. Once full,
// h is a min-heap under ranksBefore — the root is the worst entry retained.
// The order is total over distinct actions, so the result is the same set
// in whatever order the candidates are offered.
type selector struct {
	h []ScoredAction // len < cap: still filling; len == cap: heap
}

// newSelector returns a selector that keeps the k best of at most n offers —
// all n when k is negative or exceeds n.
func newSelector(k, n int) selector {
	if k < 0 || k > n {
		k = n
	}
	return selector{h: make([]ScoredAction, 0, k)}
}

// offer considers one scored candidate.
func (s *selector) offer(c ScoredAction) {
	if len(s.h) < cap(s.h) {
		s.h = append(s.h, c)
		if len(s.h) == cap(s.h) {
			for i := len(s.h)/2 - 1; i >= 0; i-- {
				heapSiftDown(s.h, i)
			}
		}
		return
	}
	if len(s.h) == 0 || ranksBefore(s.h[0], c) {
		return // c ranks below the worst retained entry
	}
	s.h[0] = c
	heapSiftDown(s.h, 0)
}

// sorted drains the selector into the ranking, best first: a slice with
// len == cap that the caller owns (nil when nothing was offered).
func (s *selector) sorted() []ScoredAction {
	out := s.h
	s.h = nil
	if len(out) == 0 {
		return nil
	}
	if len(out) < cap(out) {
		out = append(make([]ScoredAction, 0, len(out)), out...)
	}
	slices.SortFunc(out, func(a, b ScoredAction) int {
		switch {
		case ranksBefore(a, b):
			return -1
		case ranksBefore(b, a):
			return 1
		}
		return 0
	})
	return out
}

// heapSiftDown restores the min-heap property (worst-ranked at the root)
// for the subtree rooted at i.
func heapSiftDown(h []ScoredAction, i int) {
	for {
		worst := i
		if l := 2*i + 1; l < len(h) && ranksBefore(h[worst], h[l]) {
			worst = l
		}
		if r := 2*i + 2; r < len(h) && ranksBefore(h[worst], h[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// Actions projects a scored list onto its action ids. An empty list yields
// nil.
func Actions(list []ScoredAction) []core.ActionID {
	if len(list) == 0 {
		return nil
	}
	out := make([]core.ActionID, len(list))
	for i, s := range list {
		out[i] = s.Action
	}
	return out
}
