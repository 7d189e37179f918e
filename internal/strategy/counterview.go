package strategy

import (
	"context"
	"slices"

	"goalrec/internal/core"
)

// CounterView is a sorted distinct activity set. It holds no counters: it
// exists only for the per-layer rungs the repository benchmark times under
// -trace 1 (strategy.view.*), and ROADMAP item 2(c) deletes it together
// with those rungs.
type CounterView struct {
	h []core.ActionID // sorted distinct activity, including unknown-to-library ids
}

// NewCounterView returns the set of activity's distinct ids. lib is unused.
func NewCounterView(lib *core.Library, activity []core.ActionID) *CounterView {
	v := &CounterView{}
	for _, a := range activity {
		v.Apply(a)
	}
	return v
}

// Activity returns the view's sorted distinct activity H. The slice is the
// view's own state and must not be modified.
func (v *CounterView) Activity() []core.ActionID { return v.h }

// Len returns |H|.
func (v *CounterView) Len() int { return len(v.h) }

// Apply inserts a into H; it returns false when a is already there.
func (v *CounterView) Apply(a core.ActionID) bool {
	i, found := slices.BinarySearch(v.h, a)
	if !found {
		v.h = slices.Insert(v.h, i, a)
	}
	return !found
}

// RecommendView is RecommendContext over the view's activity.
func RecommendView(ctx context.Context, rec Recommender, v *CounterView, k int) ([]ScoredAction, error) {
	return RecommendContext(ctx, rec, v.h, k)
}
