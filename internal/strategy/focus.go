package strategy

import (
	"context"
	"sort"
	"sync"

	"goalrec/internal/core"
	"goalrec/internal/intset"
)

// FocusMeasure selects how the Focus strategy ranks the implementations of
// the user's implementation space (Section 5.1).
type FocusMeasure int

const (
	// Completeness ranks implementations by |A ∩ H| / |A| (Equation 3):
	// prefer the goal for which most of the required work is already done.
	Completeness FocusMeasure = iota
	// Closeness ranks implementations by 1 / |A − H| (Equation 4): prefer
	// the goal that needs the fewest additional actions.
	Closeness
)

// String returns the measure's canonical name.
func (m FocusMeasure) String() string {
	if m == Closeness {
		return "closeness"
	}
	return "completeness"
}

// Focus is the paper's Algorithm 1: it ranks the implementations associated
// with the user activity by completeness or closeness, then fills the
// recommendation list with the missing actions of the best implementation,
// moving to the next implementation when one is exhausted (Section 6.1.2
// C.2.2 describes this pop-and-advance behaviour).
//
// Scoring runs on the shared counter kernel (see kernel.go): one
// accumulation pass over H's posting rows yields |A_p ∩ H| for every
// associated implementation, from which both measures and the missing count
// follow in O(1) per implementation — no per-implementation set
// intersections. Large queries shard the pass across a bounded worker pool,
// and ranked implementations are selected through a bounded heap instead of
// a full sort; every path returns bit-identical rankings.
type Focus struct {
	lib     *core.Library
	measure FocusMeasure
	conc    concurrency
	pool    sync.Pool // *focusScratch
	pruning bool
	stats   *PruneStats
}

// focusScratch is the pooled per-query state: the kernel counters plus the
// per-shard and merged ranked-implementation buffers.
type focusScratch struct {
	overlapScratch
	perShard [][]rankedImpl
	merged   []rankedImpl
	sel      []rankedImpl
}

func (s *focusScratch) shardRanked(n int) [][]rankedImpl {
	for len(s.perShard) < n {
		s.perShard = append(s.perShard, nil)
	}
	for i := 0; i < n; i++ {
		s.perShard[i] = s.perShard[i][:0]
	}
	return s.perShard[:n]
}

// NewFocus returns a Focus strategy over lib using the given measure.
func NewFocus(lib *core.Library, measure FocusMeasure) *Focus {
	f := &Focus{lib: lib, measure: measure}
	f.pool.New = func() interface{} { return &focusScratch{} }
	return f
}

// SetConcurrency tunes the sharded implementation scan: maxWorkers bounds
// the per-query worker pool (≤ 0 selects GOMAXPROCS) and shardMin is the
// posting-stream size below which a query stays sequential (≤ 0 selects the
// default). Rankings are bit-identical for every setting. It must be called
// before the strategy starts serving queries.
func (f *Focus) SetConcurrency(maxWorkers, shardMin int) {
	f.conc = concurrency{maxWorkers: maxWorkers, shardMin: shardMin}
}

// Name implements Recommender.
func (f *Focus) Name() string {
	if f.measure == Closeness {
		return "focus-cl"
	}
	return "focus-cmp"
}

// rankedImpl is one implementation with its Focus score and missing-action
// count, used for deterministic ordering.
type rankedImpl struct {
	id      core.ImplID
	score   float64
	missing int
}

// implRanksBefore is the total ranking order over associated
// implementations: score descending, fewest missing actions, then id.
func implRanksBefore(a, b rankedImpl) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	if a.missing != b.missing {
		return a.missing < b.missing
	}
	return a.id < b.id
}

// Recommend implements Recommender.
func (f *Focus) Recommend(activity []core.ActionID, k int) []ScoredAction {
	out, _ := f.RecommendContext(context.Background(), activity, k)
	return out
}

// RecommendContext implements ContextRecommender: the kernel pass and the
// emission walk poll ctx at coarse checkpoints. On cancellation during
// emission the returned prefix is a valid partial result (Focus emits
// best-implementation-first); cancellation during scoring returns nil.
func (f *Focus) RecommendContext(ctx context.Context, activity []core.ActionID, k int) ([]ScoredAction, error) {
	if err := entryErr(ctx); err != nil {
		return nil, err
	}
	if k == 0 {
		return nil, nil
	}
	h := intset.FromUnsorted(intset.Clone(activity))
	stream := f.lib.OverlapStream(h)
	if stream == 0 {
		return nil, nil
	}
	if f.pruning && k > 0 {
		return f.recommendPruned(ctx, h, stream, k)
	}

	workers := f.conc.workersFor(stream, f.lib.NumImplementations())
	s := f.pool.Get().(*focusScratch)
	defer f.pool.Put(s)
	ranked := s.shardRanked(workers)

	// Kernel pass: each shard scores its touched implementations straight
	// from the counters. Shard output order is irrelevant — the selection
	// below ranks under a total order.
	err := s.run(ctx, f.lib, h, workers, func(shard int, touched []core.ImplID, tick *ticker) error {
		rb := ranked[shard]
		var err error
		for _, p := range touched {
			if err = tick.tick(1); err != nil {
				break
			}
			if ri, ok := focusRank(f.measure, p, f.lib.ImplLen(p), int(s.cnt[p])); ok {
				rb = append(rb, ri)
			}
		}
		s.perShard[shard] = rb
		return err
	})
	if err != nil {
		return nil, err
	}

	all := s.merged[:0]
	for _, rb := range ranked {
		all = append(all, rb...)
	}
	s.merged = all

	tick := newTicker(ctx)
	return f.selectEmit(s, all, h, k, &tick)
}

// RecommendView implements ViewRecommender: the scoring phase alone, a pure
// pass over the view's materialized counters (no posting-row accumulation).
// Views always score exact — the pruned bounds apply only to from-scratch
// builds — and the ranking is bit-identical to RecommendContext over the
// view's activity.
func (f *Focus) RecommendView(ctx context.Context, v *CounterView, k int) ([]ScoredAction, error) {
	if err := entryErr(ctx); err != nil {
		return nil, err
	}
	if v.lib != f.lib {
		return nil, ErrViewLibrary
	}
	if k == 0 || len(v.impls) == 0 {
		return nil, nil
	}
	s := f.pool.Get().(*focusScratch)
	defer f.pool.Put(s)
	tick := newTicker(ctx)
	all := s.merged[:0]
	for i, p := range v.impls {
		if err := tick.tick(1); err != nil {
			s.merged = all
			return nil, err
		}
		if ri, ok := focusRank(f.measure, p, f.lib.ImplLen(p), int(v.cnt[i])); ok {
			all = append(all, ri)
		}
	}
	s.merged = all
	return f.selectEmit(s, all, v.h, k, &tick)
}

// focusRank scores one implementation from its counter — a pure function of
// (|A_p|, |A_p ∩ H|) shared by the from-scratch kernel and the view path.
// Fully covered implementations have nothing left to recommend and rank
// nowhere (ok == false).
func focusRank(measure FocusMeasure, p core.ImplID, n, overlap int) (rankedImpl, bool) {
	missing := n - overlap
	if missing == 0 {
		return rankedImpl{}, false
	}
	var score float64
	if measure == Closeness {
		score = 1 / float64(missing)
	} else {
		score = float64(overlap) / float64(n)
	}
	return rankedImpl{id: p, score: score, missing: missing}, true
}

// selectEmit ranks the scored implementations under the total order and
// walks them best-first through emit.
func (f *Focus) selectEmit(s *focusScratch, all []rankedImpl, h []core.ActionID, k int, tick *ticker) ([]ScoredAction, error) {
	if k < 0 || len(all) <= k {
		sortRankedImpls(all)
		return f.emit(all, h, k, tick)
	}
	// Progressive bounded selection: the walk almost always fills k within
	// the first k implementations; when deduplication starves it, widen and
	// re-emit. Selection under the total order makes every widened prefix
	// an exact prefix of the fully sorted order, so results match the full
	// sort bit-for-bit.
	for m := k; ; m *= 4 {
		if m >= len(all) {
			sortRankedImpls(all)
			return f.emit(all, h, k, tick)
		}
		// Selection is in place, so it runs on a pooled copy: a widened
		// retry (or the full-sort fallback) must see the merged list intact.
		s.sel = append(s.sel[:0], all...)
		out, err := f.emit(topMRankedImpls(s.sel, m), h, k, tick)
		if err != nil || len(out) == k {
			return out, err
		}
	}
}

// emit walks the ranked implementations best-first, emitting each one's
// not-yet-performed, not-yet-emitted actions until k are collected
// (Algorithm 1's pop-and-advance). On cancellation the emitted prefix is
// returned alongside the error.
func (f *Focus) emit(ranked []rankedImpl, h []core.ActionID, k int, tick *ticker) ([]ScoredAction, error) {
	var (
		out  []ScoredAction
		seen = make(map[core.ActionID]struct{})
	)
	for _, ri := range ranked {
		if err := tick.tick(1); err != nil {
			return out, err
		}
		for _, a := range f.lib.Actions(ri.id) {
			if intset.Contains(h, a) {
				continue
			}
			if _, dup := seen[a]; dup {
				continue
			}
			seen[a] = struct{}{}
			out = append(out, ScoredAction{Action: a, Score: ri.score})
			if k > 0 && len(out) == k {
				return out, nil
			}
		}
	}
	return out, nil
}

// sortRankedImpls orders ranked best-first under the total implementation
// order.
func sortRankedImpls(ranked []rankedImpl) {
	sort.Slice(ranked, func(i, j int) bool {
		return implRanksBefore(ranked[i], ranked[j])
	})
}

// topMRankedImpls selects the m best implementations with a min-heap kept in
// ranked[:m] and leaves them sorted best-first — the rankedImpl counterpart
// of the action selector, kept monomorphic so neither hot loop pays an
// indirect comparator call.
func topMRankedImpls(ranked []rankedImpl, m int) []rankedImpl {
	h := ranked[:m]
	for i := m/2 - 1; i >= 0; i-- {
		implSiftDown(h, i)
	}
	for _, r := range ranked[m:] {
		if implRanksBefore(h[0], r) {
			continue
		}
		h[0] = r
		implSiftDown(h, 0)
	}
	for n := m - 1; n > 0; n-- {
		h[0], h[n] = h[n], h[0]
		implSiftDown(h[:n], 0)
	}
	return h
}

// implSiftDown restores the min-heap property (worst-ranked at the root)
// for the subtree rooted at i.
func implSiftDown(h []rankedImpl, i int) {
	for {
		worst := i
		if l := 2*i + 1; l < len(h) && implRanksBefore(h[worst], h[l]) {
			worst = l
		}
		if r := 2*i + 2; r < len(h) && implRanksBefore(h[worst], h[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}
