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
// postings they were accumulated from; callers advance or rebuild the view
// before scoring (see AdvanceTo).
var ErrViewLibrary = errors.New("strategy: counter view was built over a different library snapshot")

// CounterView is the kernel's accumulation phase materialized as state: for
// an activity H it holds what a query would otherwise re-accumulate along
// H's posting rows — cnt[p] = |A_p ∩ H| for every implementation of IS(H) —
// and nothing a query can derive from that state and the library: |A_p| is
// Library.ImplLen, and the candidate pool AS(H) − H = ∪_{p∈IS(H)} A_p − H,
// the goal space and Best Match's profile (Σ cnt[p] over the implementations
// of each goal) are collected from impls per Best Match query.
// A view is built from scratch over a library, delta-updated by Apply along
// one appended action's posting row, and carried across same-lineage
// snapshot extensions by AdvanceTo, which replays only the appended
// posting-row tails. RecommendView hands the view's arrays to the same
// scoring driver a from-scratch query feeds from the counter kernel, so
// every strategy ranks a view bit-identically to a from-scratch Recommend
// over the same H.
//
// impls and cnt are parallel and id-sorted. A view is single-writer
// state: the owner serializes Apply/AdvanceTo/RecommendView calls (the
// per-user store holds one view per user under the user's lock). Merge
// scratch is pooled across views (viewScratch), never part of one.
type CounterView struct {
	lib *core.Library

	h []core.ActionID // sorted distinct activity, including unknown-to-library ids

	impls []core.ImplID // sorted IS(h)
	cnt   []int32       // cnt[i] = |A_impls[i] ∩ h|
}

// viewScratch is the merge scratch of one Apply or AdvanceTo call. Results
// never alias it.
type viewScratch struct {
	fresh []core.ImplID // first-touch ids of a row; delta postings of an advance
	mult  []int32       // multiplicities of an advance's distinct ids
}

var viewScratchPool = sync.Pool{New: func() any { return new(viewScratch) }}

// NewCounterView builds a view of activity over lib by applying each
// distinct action's posting row. Unknown-to-library ids are kept in H (they
// count toward |H| exactly as the from-scratch kernel counts them) but
// contribute no postings.
func NewCounterView(lib *core.Library, activity []core.ActionID) *CounterView {
	v := &CounterView{}
	v.Rebuild(lib, activity)
	return v
}

// Rebuild resets the view in place (keeping its allocations) and rebuilds it
// over lib from activity — the swap-invalidation path for views whose
// library changed lineage.
func (v *CounterView) Rebuild(lib *core.Library, activity []core.ActionID) {
	v.lib = lib
	v.h = v.h[:0]
	v.impls = v.impls[:0]
	v.cnt = v.cnt[:0]
	for _, a := range activity {
		v.Apply(a)
	}
}

// Lib returns the library snapshot the counters are valid against.
func (v *CounterView) Lib() *core.Library { return v.lib }

// Activity returns the view's sorted distinct activity H. The slice is the
// view's own state and must not be modified.
func (v *CounterView) Activity() []core.ActionID { return v.h }

// Len returns |H|.
func (v *CounterView) Len() int { return len(v.h) }

// Footprint returns the heap bytes the view's arrays hold, used by the user
// store's materialization accounting.
func (v *CounterView) Footprint() int {
	return 4 * (cap(v.h) + cap(v.impls) + cap(v.cnt))
}

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
// need plus one eighth: a view lives as long as its user stays materialized,
// so the slack append's doubling leaves behind is paid for the whole time.
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

// AdvanceTo carries the view from its current snapshot to newLib, which must
// be a same-lineage extension (DynamicLibrary snapshots append: every posting
// row of newLib is the old row plus strictly larger implementation ids, and
// implementation action sets are immutable). Only the appended row tails
// [oldN, newN) of H's actions are replayed — cost proportional to the delta,
// not to |IS(H)|. Crossing a Swap (new lineage, ids reassigned) requires
// Rebuild instead; the engine layer tracks lineage and chooses.
func (v *CounterView) AdvanceTo(newLib *core.Library) {
	if newLib == v.lib {
		return
	}
	oldN := core.ImplID(v.lib.NumImplementations())
	newN := core.ImplID(newLib.NumImplementations())
	v.lib = newLib
	if newN <= oldN {
		// Same implementation content (an epoch-only republish).
		return
	}
	sc := viewScratchPool.Get().(*viewScratch)
	defer viewScratchPool.Put(sc)
	delta := sc.fresh[:0]
	for _, a := range v.h {
		if a < 0 || int(a) >= newLib.NumActions() {
			continue
		}
		delta = append(delta, newLib.ImplsOfActionRange(a, oldN, newN)...)
	}
	sc.fresh = delta
	if len(delta) == 0 {
		return
	}
	// Each delta posting is one (action, implementation) incidence: it
	// contributes 1 to cnt[p]. Every delta id is ≥ oldN, strictly above every
	// materialized id, so the merge is a pure append in run-length order.
	slices.Sort(delta)
	delta, sc.mult = runLengths(delta, sc.mult)
	n := len(v.impls)
	v.impls = grow(v.impls, len(delta))
	v.cnt = grow(v.cnt, len(delta))
	copy(v.impls[n:], delta)
	copy(v.cnt[n:], sc.mult)
}

// runLengths compacts sorted s to its distinct values in place and returns
// them with each value's multiplicity in mult[:0].
func runLengths[T comparable](s []T, mult []int32) ([]T, []int32) {
	mult = mult[:0]
	w := 0
	for i := 0; i < len(s); {
		j := i
		for j < len(s) && s[j] == s[i] {
			j++
		}
		s[w] = s[i]
		mult = append(mult, int32(j-i))
		w++
		i = j
	}
	return s[:w], mult
}

// RecommendView scores a materialized view through rec: the view's arrays
// go straight to the strategy's scoring driver, with no accumulation pass.
// Cache wrappers are unwrapped: a view already is the per-user cache, and
// its results must not be keyed by activity across epochs. Recommenders
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
