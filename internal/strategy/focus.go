package strategy

import (
	"context"
	"sort"

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
// intersections. One driver (rank) scores those counters, a local query's
// and a shard's (TopEmissions) alike. Ranked implementations are selected
// through a bounded heap instead of a full sort.
type Focus struct {
	lib     *core.Library
	measure FocusMeasure
}

// NewFocus returns a Focus strategy over lib using the given measure.
func NewFocus(lib *core.Library, measure FocusMeasure) *Focus {
	return &Focus{lib: lib, measure: measure}
}

// Name implements Recommender.
func (f *Focus) Name() string {
	if f.measure == Closeness {
		return "focus-cl"
	}
	return "focus-cmp"
}

// rankedImpl is one implementation with its Focus score and missing-action
// count, used for deterministic ordering: 16 bytes, the two 32-bit fields
// packed ahead of the score.
type rankedImpl struct {
	id      core.ImplID
	missing int32
	score   float64
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
	out, err := f.emissions(ctx, activity, k, 0)
	return scoredActions(out), err
}

// emissions is the from-scratch query, single node and shard alike (a single
// node is the one shard at implBase 0): the counter kernel counts every
// associated implementation, and rank scores, ranks and walks them.
func (f *Focus) emissions(ctx context.Context, activity []core.ActionID, k int, implBase int64) ([]FocusEmission, error) {
	h := intset.FromUnsorted(intset.Clone(activity))
	s := getScratch()
	defer putScratch(s)
	if err := s.gather(ctx, f.lib, h); err != nil {
		return nil, err
	}
	return f.rank(ctx, s, h, k, implBase)
}

// rank is Focus's one scoring driver, over the kernel's gathered counters:
// counts[i] = |A_touched[i] ∩ H| scores touched[i] into s's ranked buffer,
// and selectEmit ranks and walks the scored set.
func (f *Focus) rank(ctx context.Context, s *scratch, h []core.ActionID, k int, implBase int64) ([]FocusEmission, error) {
	tick := newTicker(ctx)
	s.ranked = grow(s.ranked[:0], len(s.touched))
	all := s.ranked[:0]
	for i, p := range s.touched {
		if err := tick.tick(1); err != nil {
			return nil, err
		}
		if ri, ok := focusRank(f.measure, p, f.lib.ImplLen(p), int(s.counts[i])); ok {
			all = append(all, ri)
		}
	}
	return f.selectEmit(ctx, all, h, k, implBase)
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
	return rankedImpl{id: p, missing: int32(missing), score: score}, true
}

// selectEmit is the one select → emit loop: rank the complete scored set all
// under the total order, walk the m best through emit, and widen m by four
// while deduplication starves the walk of its k emissions. Selection under
// the total order makes every widened prefix an exact prefix of the fully
// sorted order, so the result matches a full sort bit for bit. Selection
// permutes all in place, so a widened round selects from the whole set.
func (f *Focus) selectEmit(ctx context.Context, all []rankedImpl, h []core.ActionID, k int, implBase int64) ([]FocusEmission, error) {
	for m := k; ; m *= 4 {
		whole := k < 0 || len(all) <= m
		sel := all
		if whole {
			sortRankedImpls(all)
		} else {
			sel = topMRankedImpls(all, m)
		}
		tick := newTicker(ctx)
		out, err := f.emit(sel, h, k, implBase, &tick)
		if err != nil || len(out) == k || whole {
			return out, err
		}
	}
}

// FocusEmission is one Focus emission: an action, the score of the
// implementation that emitted it, and enough of that implementation's
// identity (global id, missing count) to merge emission streams under the
// global total order.
type FocusEmission struct {
	Action  core.ActionID `json:"a"`
	Score   float64       `json:"s"`
	Missing int           `json:"m"`
	Impl    int64         `json:"p"`
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
				Missing: int(ri.missing),
				Impl:    implBase + int64(ri.id),
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
// indirect comparator call. Each entry the heap evicts is swapped into the
// slot its replacement came from, so ranked stays a permutation of its
// entries and a later call can select from it again.
func topMRankedImpls(ranked []rankedImpl, m int) []rankedImpl {
	h := ranked[:m]
	for i := m/2 - 1; i >= 0; i-- {
		implSiftDown(h, i)
	}
	for j := m; j < len(ranked); j++ {
		if implRanksBefore(h[0], ranked[j]) {
			continue
		}
		h[0], ranked[j] = ranked[j], h[0]
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
