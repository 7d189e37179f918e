package strategy

import (
	"context"
	"errors"
	"slices"
	"sync"

	"goalrec/internal/core"
)

// ErrViewLibrary reports a CounterView scored against a strategy built over
// a different library snapshot. Counters are only meaningful against the
// postings they were accumulated from.
var ErrViewLibrary = errors.New("strategy: counter view was built over a different library snapshot")

// CounterView is the kernel's accumulation phase materialized as state: for
// an activity H it holds what a query would otherwise re-accumulate along
// H's posting rows — cnt[p] = |A_p ∩ H| for every implementation of IS(H) —
// and nothing a query can derive from that state and the library: |A_p| is
// Library.ImplLen, and the candidate pool AS(H) − H = ∪_{p∈IS(H)} A_p − H,
// the goal space and Best Match's profile (Σ cnt[p] over the implementations
// of each goal) are collected from impls per Best Match query.
// A view is built over one library and delta-updated by Apply along one
// appended action's posting row. RecommendView hands the view's arrays to
// the same scoring driver a from-scratch query feeds from the counter
// kernel, so every strategy ranks a view bit-identically to a from-scratch
// Recommend over the same H.
//
// impls and cnt are parallel and id-sorted. A view is single-writer state:
// the owner serializes Apply/RecommendView calls. Merge scratch is pooled
// across views (viewScratch), never part of one.
type CounterView struct {
	lib *core.Library

	h []core.ActionID // sorted distinct activity, including unknown-to-library ids

	impls []core.ImplID // sorted IS(h)
	cnt   []int32       // cnt[i] = |A_impls[i] ∩ h|
}

// viewScratch is the merge scratch of one Apply call. Results never alias
// it.
type viewScratch struct {
	fresh []core.ImplID // first-touch ids of a row
}

var viewScratchPool = sync.Pool{New: func() any { return new(viewScratch) }}

// NewCounterView builds a view of activity over lib by applying each
// distinct action's posting row. Unknown-to-library ids are kept in H (they
// count toward |H| exactly as the from-scratch kernel counts them) but
// contribute no postings.
func NewCounterView(lib *core.Library, activity []core.ActionID) *CounterView {
	v := &CounterView{lib: lib}
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

// Apply adds action a to H and delta-updates the counters along a's posting
// row: cnt along IS(a), first-touch implementations merged into impls. It
// returns false when a is already in H (duplicate appends are no-ops,
// matching the set semantics of the from-scratch kernel). Cost is
// O(|IS(a)| + |IS(h)|) merge steps — one posting-row walk, no rescan of H's
// other rows and no visit to any implementation's action set.
func (v *CounterView) Apply(a core.ActionID) bool {
	i, found := slices.BinarySearch(v.h, a)
	if found {
		return false
	}
	v.h = slices.Insert(v.h, i, a)

	if a < 0 || int(a) >= v.lib.NumActions() {
		// Unknown to the library: in H (it counts toward |H|) but rowless.
		return true
	}
	sc := viewScratchPool.Get().(*viewScratch)
	v.mergeRow(v.lib.ImplsOfAction(a), sc)
	viewScratchPool.Put(sc)
	return true
}

// grow extends s by n entries. Past capacity it reallocates to the exact
// need plus one eighth, not append's doubling: a view's slack is held as
// long as the view is.
func grow[T any](s []T, n int) []T {
	need := len(s) + n
	if need <= cap(s) {
		return s[:need]
	}
	t := make([]T, need, need+need/8)
	copy(t, s)
	return t
}

// mergeRow folds one sorted posting row into impls/cnt.
func (v *CounterView) mergeRow(row []core.ImplID, sc *viewScratch) {
	// First pass: bump existing counters, collect first-touch ids.
	fresh := sc.fresh[:0]
	i := 0
	for _, p := range row {
		for i < len(v.impls) && v.impls[i] < p {
			i++
		}
		if i < len(v.impls) && v.impls[i] == p {
			v.cnt[i]++
			i++
			continue
		}
		fresh = append(fresh, p)
	}
	sc.fresh = fresh
	if len(fresh) == 0 {
		return
	}
	// Backward merge the first-touch ids into the parallel arrays; once fresh
	// is consumed the untouched prefix is already in place.
	n := len(v.impls)
	v.impls = grow(v.impls, len(fresh))
	v.cnt = grow(v.cnt, len(fresh))
	for w, i, j := len(v.impls)-1, n-1, len(fresh)-1; j >= 0; w-- {
		if i >= 0 && v.impls[i] > fresh[j] {
			v.impls[w] = v.impls[i]
			v.cnt[w] = v.cnt[i]
			i--
			continue
		}
		v.impls[w] = fresh[j]
		v.cnt[w] = 1
		j--
	}
}

// RecommendView scores a materialized view through rec: the view's arrays
// go straight to the strategy's scoring driver, with no accumulation pass.
// Cache wrappers are unwrapped: a view already holds its query's counters,
// and its results must not be keyed by activity across epochs. Recommenders
// without a driver (the baselines) fall back to a from-scratch
// RecommendContext over the view's activity, which is bit-identical by the
// view invariants.
func RecommendView(ctx context.Context, rec Recommender, v *CounterView, k int) ([]ScoredAction, error) {
	if c, ok := rec.(*Cached); ok {
		rec = c.inner
	}
	var lib *core.Library
	switch r := rec.(type) {
	case *Focus:
		lib = r.lib
	case *Breadth:
		lib = r.lib
	case *BestMatch:
		lib = r.lib
	default:
		return RecommendContext(ctx, rec, v.Activity(), k)
	}
	if err := entryErr(ctx); err != nil {
		return nil, err
	}
	if v.lib != lib {
		return nil, ErrViewLibrary
	}
	if k == 0 {
		return nil, nil
	}
	switch r := rec.(type) {
	case *Focus:
		em, err := r.rank(ctx, v.h, v.impls, v.cnt, k, 0)
		return scoredActions(em), err
	case *Breadth:
		return r.score(ctx, v.h, v.impls, v.cnt, k)
	}
	return rec.(*BestMatch).rankCounts(ctx, v.h, v.impls, v.cnt, k)
}
