package strategy

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"goalrec/internal/core"
	"goalrec/internal/intset"
)

// Shard partials and gather merges for distributed (scatter-gather) serving.
// A cluster worker holds a contiguous implementation-id range of the library
// (see core.PartitionRange) and computes a strategy-specific partial; the
// coordinator merges partials into the exact ranking a single node would
// produce — bit-identical scores and order, pinned by the cluster oracle
// tests. The soundness arguments live in DESIGN.md ("Cluster serving &
// scatter-gather"); in short:
//
//   - Focus: emissions carry their source implementation's global id,
//     length and missing count (FocusEmission). The global emission order is
//     lexicographic in (score desc, missing asc, global impl id asc, action
//     id asc), an action's first-emitting implementation in its home shard
//     is also its globally first, and a shard's k-th emission key lower-
//     bounds nothing above the global k-th — so per-shard top-k emission
//     lists, deduplicated by best key, recover the global top k exactly.
//   - Breadth: scores are sums of integer-valued comm terms, additive over
//     any partition of the implementation space, so full per-shard candidate
//     sums (as int64) folded at the coordinator reproduce the exact float64
//     a single node computes.
//   - Best Match: profiles and candidate vectors are integer per-goal
//     posting counts, additive over shards. A survey round establishes the
//     global candidate set, goal space and profile; a vector round gathers
//     per-candidate multiplicities restricted to the *global* goal space;
//     the coordinator then folds them into the same integer sums a single
//     node accumulates and finishes every metric with the same bmScore.

// ---------------------------------------------------------------------------
// Focus
// ---------------------------------------------------------------------------

// TopEmissions is the shard-side Focus scatter entry point: the first k
// emissions of this library's Focus walk — RecommendContext before its
// projection onto ScoredAction — with implBase the shard's global
// implementation-id offset; k must be positive.
func (f *Focus) TopEmissions(ctx context.Context, activity []core.ActionID, k int, implBase int64) ([]FocusEmission, error) {
	if err := entryErr(ctx); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, nil
	}
	return f.emissions(ctx, activity, k, implBase)
}

// emissionBefore is the global emission order: implementation key (score
// desc, missing asc, global id asc), then action id within an
// implementation. It extends implRanksBefore across shards.
func emissionBefore(a, b FocusEmission) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if a.Missing != b.Missing {
		return a.Missing < b.Missing
	}
	if a.Impl != b.Impl {
		return a.Impl < b.Impl
	}
	return a.Action < b.Action
}

// MergeFocusEmissions folds per-shard emission lists into the global top k.
// Each action keeps its best-keyed emission (its home shard contributes the
// true key; other shards' duplicates carry strictly worse keys), and the
// deduplicated set sorts under the global emission order.
func MergeFocusEmissions(shards [][]FocusEmission, k int) []ScoredAction {
	if k <= 0 {
		return nil
	}
	best := make(map[core.ActionID]FocusEmission)
	for _, list := range shards {
		for _, e := range list {
			if cur, ok := best[e.Action]; !ok || emissionBefore(e, cur) {
				best[e.Action] = e
			}
		}
	}
	all := make([]FocusEmission, 0, len(best))
	for _, e := range best {
		all = append(all, e)
	}
	sort.Slice(all, func(i, j int) bool { return emissionBefore(all[i], all[j]) })
	if len(all) > k {
		all = all[:k]
	}
	return scoredActions(all)
}

// ---------------------------------------------------------------------------
// Breadth
// ---------------------------------------------------------------------------

// BreadthPartial is one shard's complete candidate pool with exact integer
// score partials: every comm term is integer-valued, so the full per-shard
// sum fits int64 exactly and the coordinator's fold is the same integer the
// single-node float64 accumulation represents. Breadth has no sound
// cross-node floor — a candidate's score gathers additive contributions
// from every shard, so no shard can locally bound another's total — hence
// full partials rather than top-k lists.
type BreadthPartial struct {
	Actions []core.ActionID `json:"actions"`
	Sums    []int64         `json:"sums"`
}

// ShardPartial computes the shard's exact candidate sums. |H| (the Union
// weighting's term) is the resolved global activity length, identical on
// every worker because every worker resolves against the same vocabulary.
func (b *Breadth) ShardPartial(ctx context.Context, activity []core.ActionID) (*BreadthPartial, error) {
	scored, err := b.RecommendContext(ctx, activity, -1)
	if err != nil {
		return nil, err
	}
	p := &BreadthPartial{
		Actions: make([]core.ActionID, len(scored)),
		Sums:    make([]int64, len(scored)),
	}
	for i, s := range scored {
		p.Actions[i] = s.Action
		p.Sums[i] = int64(s.Score)
	}
	return p, nil
}

// MergeBreadthPartials folds shard sums per action and ranks under the
// total order — bit-identical to the single-node integer-exact fold.
func MergeBreadthPartials(parts []*BreadthPartial, k int) []ScoredAction {
	if k == 0 {
		return nil
	}
	totals := make(map[core.ActionID]int64)
	for _, p := range parts {
		if p == nil {
			continue
		}
		for i, a := range p.Actions {
			totals[a] += p.Sums[i]
		}
	}
	if len(totals) == 0 {
		return nil
	}
	sel := newSelector(k, len(totals))
	for a, sum := range totals {
		sel.offer(ScoredAction{Action: a, Score: float64(sum)})
	}
	return sel.sorted()
}

// ---------------------------------------------------------------------------
// Best Match
// ---------------------------------------------------------------------------

// BestMatchSurvey is round one of the two-round Best Match scatter: the
// shard's candidate pool, goal space, and integer profile partial (parallel
// to GoalSpace). All three union/sum across shards into exactly the global
// quantities, because implementation sets partition and the counts are
// per-implementation counts.
type BestMatchSurvey struct {
	Candidates []core.ActionID `json:"candidates"`
	GoalSpace  []core.GoalID   `json:"goal_space"`
	Profile    []int64         `json:"profile"`
}

// BestMatchVectors is round two: per-candidate sparse multiplicities
// restricted to the global goal space, in CSR form — Off[i]..Off[i+1]
// delimit candidate i's (Slot, Mult) pairs, Slot indexing the coordinator's
// goal-space order. Restricting worker-locally to a *local* goal space
// would undercount goals reachable only through other shards; the global
// space comes down with the request.
type BestMatchVectors struct {
	Off  []int32 `json:"off"`
	Slot []int32 `json:"slot"`
	Mult []int64 `json:"mult"`
}

// ShardSurvey computes round one on the shard library, from the same
// posting walk that collects a single node's candidates and profile.
func (bm *BestMatch) ShardSurvey(ctx context.Context, activity []core.ActionID) (*BestMatchSurvey, error) {
	if err := entryErr(ctx); err != nil {
		return nil, err
	}
	h := intset.FromUnsorted(intset.Clone(activity))
	s := bmScratchPool.Get().(*bmScratch)
	defer bmScratchPool.Put(s)
	s.goals.Reset(goalBound(bm.lib, h))
	s.cands = bm.lib.AppendCandidates(s.cands[:0], &s.candBufs, h, &s.goals)
	out := &BestMatchSurvey{
		Candidates: append([]core.ActionID(nil), s.cands...),
		GoalSpace:  intset.FromUnsorted(append([]core.GoalID(nil), s.goals.Goals...)),
	}
	out.Profile = make([]int64, len(out.GoalSpace))
	for i, g := range out.GoalSpace {
		out.Profile[i] = int64(s.goals.Counts[s.goals.Slot(g)])
	}
	return out, nil
}

// ShardVectors computes round two: candidates and goalSpace are the
// coordinator-merged global sets. Each candidate walks its posting row
// through the GI-G-idx and reports, in slot order, how many of its postings
// fall on each goal of goalSpace.
func (bm *BestMatch) ShardVectors(ctx context.Context, candidates []core.ActionID, goalSpace []core.GoalID) (*BestMatchVectors, error) {
	if err := entryErr(ctx); err != nil {
		return nil, err
	}
	s := bmScratchPool.Get().(*bmScratch)
	defer bmScratchPool.Put(s)
	for i, g := range goalSpace {
		if g < 0 || int(g) >= bm.lib.NumGoals() || (i > 0 && g <= goalSpace[i-1]) {
			return nil, fmt.Errorf("strategy: goal space is not an ascending set of the library's goals (goal %d at %d)", g, i)
		}
	}
	// Validated, the space holds at most the library's goals.
	s.goals.Reset(len(goalSpace))
	for _, g := range goalSpace {
		s.goals.Add(g, 0) // slot = index in goalSpace
	}
	if len(s.run) < len(goalSpace) {
		s.run = make([]float64, len(goalSpace))
	}
	out := &BestMatchVectors{Off: make([]int32, 1, len(candidates)+1)}
	tick := newTicker(ctx)
	for _, a := range candidates {
		base, tail := bm.lib.ActionRows(a)
		if err := tick.tick(len(base) + len(tail) + 1); err != nil {
			return nil, err
		}
		s.touched = s.touched[:0]
		for _, row := range [...][]core.ImplID{base, tail} {
			for _, p := range row {
				if i := s.goals.Slot(bm.lib.Goal(p)); i >= 0 {
					if s.run[i] == 0 {
						s.touched = append(s.touched, i)
					}
					s.run[i]++
				}
			}
		}
		slices.Sort(s.touched)
		for _, i := range s.touched {
			out.Slot = append(out.Slot, int32(i))
			out.Mult = append(out.Mult, int64(s.run[i]))
			s.run[i] = 0
		}
		out.Off = append(out.Off, int32(len(out.Slot)))
	}
	return out, nil
}

// MergeBestMatchSurveys unions the shard candidate pools and goal spaces
// and sums the profile partials, aligned to the merged goal space.
func MergeBestMatchSurveys(surveys []*BestMatchSurvey) (candidates []core.ActionID, goalSpace []core.GoalID, profile []int64) {
	var cands []core.ActionID
	var goals []core.GoalID
	for _, s := range surveys {
		if s == nil {
			continue
		}
		cands = append(cands, s.Candidates...)
		goals = append(goals, s.GoalSpace...)
	}
	candidates = intset.FromUnsorted(cands)
	goalSpace = intset.FromUnsorted(goals)
	profile = make([]int64, len(goalSpace))
	slot := make(map[core.GoalID]int, len(goalSpace))
	for i, g := range goalSpace {
		slot[g] = i
	}
	for _, s := range surveys {
		if s == nil {
			continue
		}
		for i, g := range s.GoalSpace {
			profile[slot[g]] += s.Profile[i]
		}
	}
	return candidates, goalSpace, profile
}

// MergeBestMatchVectors folds each candidate's shard multiplicities into the
// bmSums a single node accumulates and finishes them with the same bmScore:
// every operand is an exact integer sum over the global goal space, so the
// score is bit-identical to a single node's for every metric. Vector lists
// are parallel to candidates; a nil entry in vectors contributes nothing
// (that shard had no postings for the pool).
func MergeBestMatchVectors(metric Metric, candidates []core.ActionID, goalSpace []core.GoalID, profile []int64, vectors []*BestMatchVectors, k int) []ScoredAction {
	if k == 0 || len(candidates) == 0 {
		return nil
	}
	l1 := readsL1(metric)
	var h bmSums
	for _, p := range profile {
		h.add(float64(p), float64(p), true)
	}
	mult := make([]int64, len(goalSpace)) // one candidate's folded vector, by slot
	touched := make([]int32, 0, 16)       // its nonzero slots
	sel := newSelector(k, len(candidates))
	for ci, a := range candidates {
		touched = touched[:0]
		for _, v := range vectors {
			if v == nil || ci+1 >= len(v.Off) {
				continue
			}
			for j := v.Off[ci]; j < v.Off[ci+1]; j++ {
				s := v.Slot[j]
				if mult[s] == 0 {
					touched = append(touched, s)
				}
				mult[s] += v.Mult[j]
			}
		}
		var sums bmSums
		for _, s := range touched {
			sums.add(float64(mult[s]), float64(profile[s]), l1)
			mult[s] = 0
		}
		sel.offer(ScoredAction{Action: a, Score: bmScore(metric, h, sums)})
	}
	return sel.sorted()
}
