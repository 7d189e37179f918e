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
// a full sort. On a size-sorted (impact-ordered) library a bounded top-k
// query takes the block-max scan of prune.go instead of the kernel pass —
// chosen from what the library reports, not by an option. Every path returns
// bit-identical rankings.
type Focus struct {
	lib     *core.Library
	measure FocusMeasure
	conc    concurrency
	pool    sync.Pool   // *focusScratch
	stats   *PruneStats // block-max scan counters; nil records nothing
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

// concat gathers the first n shard lists into the merged buffer. Shard order
// is irrelevant: selection ranks under a total order.
func (s *focusScratch) concat(n int) []rankedImpl {
	all := s.merged[:0]
	for _, rb := range s.perShard[:n] {
		all = append(all, rb...)
	}
	s.merged = all
	return all
}

// NewFocus returns a Focus strategy over lib using the given measure.
func NewFocus(lib *core.Library, measure FocusMeasure) *Focus {
	f := &Focus{lib: lib, measure: measure}
	f.pool.New = func() interface{} { return &focusScratch{} }
	return f
}

// CountInto attaches the sink the block-max scan adds its per-query tallies
// to. It must be called before the strategy starts serving queries.
func (f *Focus) CountInto(stats *PruneStats) { f.stats = stats }

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

// RecommendContext implements ContextRecommender: the rank source and the
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
	out, err := f.emissions(ctx, activity, k, 0, nil)
	return scoredActions(out), err
}

// rankSource produces the scored implementations one select → emit round
// ranks at selection width m. pruned reports that implementations were left
// out — by a block skip or a bounded heap — so a round that starves must ask
// again at a wider m; a source that returns the complete scored set is asked
// once.
type rankSource func(m int) (ranked []rankedImpl, pruned bool, err error)

// emissions is the from-scratch query, single node and shard alike (a single
// node is the one shard at implBase 0 with no external floor). The block-max
// scan serves bounded queries on a size-sorted library; everything else
// takes the counter kernel.
func (f *Focus) emissions(ctx context.Context, activity []core.ActionID, k int, implBase int64, ext *focusFloor) ([]FocusEmission, error) {
	h := intset.FromUnsorted(intset.Clone(activity))
	stream := f.lib.OverlapStream(h)
	if stream == 0 {
		return nil, nil
	}
	workers := f.conc.workersFor(stream, f.lib.NumImplementations())
	s := f.pool.Get().(*focusScratch)
	defer f.pool.Put(s)
	src := func(int) ([]rankedImpl, bool, error) {
		all, err := f.kernelRanks(ctx, s, h, workers)
		return all, false, err
	}
	if f.lib.ImplLenSorted() && k > 0 {
		if f.stats != nil {
			f.stats.ImplsAssociated.Add(int64(stream))
		}
		src = func(m int) ([]rankedImpl, bool, error) {
			return f.prunedPass(ctx, h, workers, m, s, ext)
		}
	}
	return f.selectEmit(ctx, s, src, h, k, implBase)
}

// kernelRanks is the counter-kernel rank source: each shard scores its
// touched implementations straight from the counters.
func (f *Focus) kernelRanks(ctx context.Context, s *focusScratch, h []core.ActionID, workers int) ([]rankedImpl, error) {
	ranked := s.shardRanked(workers)
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
	return s.concat(workers), nil
}

// RecommendView implements ViewRecommender: the view's materialized counters
// are the rank source (no posting-row accumulation), and the ranking is
// bit-identical to RecommendContext over the view's activity.
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
	src := func(int) ([]rankedImpl, bool, error) {
		tick := newTicker(ctx)
		all := s.merged[:0]
		for i, p := range v.impls {
			if err := tick.tick(1); err != nil {
				return nil, false, err
			}
			if ri, ok := focusRank(f.measure, p, f.lib.ImplLen(p), int(v.cnt[i])); ok {
				all = append(all, ri)
			}
		}
		s.merged = all
		return all, false, nil
	}
	out, err := f.selectEmit(ctx, s, src, v.h, k, 0)
	return scoredActions(out), err
}

// focusRank scores one implementation from its counter — a pure function of
// (|A_p|, |A_p ∩ H|) shared by every rank source. Fully covered
// implementations have nothing left to recommend and rank nowhere
// (ok == false).
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

// selectEmit is the one select → emit loop: rank the source's implementations
// under the total order, walk the m best through emit, and widen m by four
// while deduplication starves the walk of its k emissions. Selection under
// the total order makes every widened prefix an exact prefix of the fully
// sorted order, so the result matches a full sort bit for bit.
//
// A source that left nothing out is ranked in place from then on. One that
// pruned is asked again at the wider m: its list may hold implementations a
// skip undercounted, but every such score is strictly below the floor that
// justified the skip, hence below the true m-th best, and exact selection
// removes them; a pruned list of at most m entries is either complete or
// exactly the true top m. At m ≥ the implementation count no heap can evict,
// so what a source still prunes it prunes under an external floor — provably
// irrelevant to the gather merge — and a short list is the complete answer.
func (f *Focus) selectEmit(ctx context.Context, s *focusScratch, src rankSource, h []core.ActionID, k int, implBase int64) ([]FocusEmission, error) {
	var all []rankedImpl
	pruned := true
	for m := k; ; m *= 4 {
		if pruned {
			var err error
			if all, pruned, err = src(m); err != nil {
				return nil, err
			}
		}
		whole := k < 0 || len(all) <= m
		sel := all
		if whole {
			sortRankedImpls(all)
		} else {
			// Selection is in place, so it runs on a pooled copy: a widened
			// round must see the source's list intact.
			s.sel = append(s.sel[:0], all...)
			sel = topMRankedImpls(s.sel, m)
		}
		tick := newTicker(ctx)
		out, err := f.emit(sel, h, k, implBase, &tick)
		if err != nil || len(out) == k || (whole && !pruned) || (pruned && m >= f.lib.NumImplementations()) {
			return out, err
		}
	}
}

// FocusEmission is one Focus emission: an action, the score of the
// implementation that emitted it, and enough of that implementation's
// identity (global id, length, missing count) to merge emission streams
// under the global total order and to derive the cross-node score floor.
type FocusEmission struct {
	Action  core.ActionID `json:"a"`
	Score   float64       `json:"s"`
	Missing int           `json:"m"`
	Impl    int64         `json:"p"`
	ImplLen int           `json:"n"`
}

// scoredActions projects emissions onto the ranking they spell.
func scoredActions(em []FocusEmission) []ScoredAction {
	if len(em) == 0 {
		return nil
	}
	out := make([]ScoredAction, len(em))
	for i, e := range em {
		out[i] = ScoredAction{Action: e.Action, Score: e.Score}
	}
	return out
}

// emit walks the ranked implementations best-first, emitting each one's
// not-yet-performed, not-yet-emitted actions until k are collected
// (Algorithm 1's pop-and-advance). implBase is the shard's global
// implementation-id offset. On cancellation the emitted prefix is returned
// alongside the error.
func (f *Focus) emit(ranked []rankedImpl, h []core.ActionID, k int, implBase int64, tick *ticker) ([]FocusEmission, error) {
	var (
		out  []FocusEmission
		seen = make(map[core.ActionID]struct{})
	)
	for _, ri := range ranked {
		if err := tick.tick(1); err != nil {
			return out, err
		}
		acts := f.lib.Actions(ri.id)
		for _, a := range acts {
			if intset.Contains(h, a) {
				continue
			}
			if _, dup := seen[a]; dup {
				continue
			}
			seen[a] = struct{}{}
			out = append(out, FocusEmission{
				Action:  a,
				Score:   ri.score,
				Missing: ri.missing,
				Impl:    implBase + int64(ri.id),
				ImplLen: len(acts),
			})
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
