package strategy

import (
	"context"
	"math"
	"sort"
	"sync/atomic"

	"goalrec/internal/core"
	"goalrec/internal/intset"
	"goalrec/internal/vectorspace"
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
//   - Best Match: profiles and candidate vectors are integer AG-idx
//     multiplicities, additive over shards. A survey round establishes the
//     global candidate set, goal space and profile; a vector round gathers
//     per-candidate multiplicities restricted to the *global* goal space;
//     the coordinator then evaluates the same float64 expressions
//     (sim = dot / (‖H⃗‖·√sumsq), score = −(1−sim)) on exactly the same
//     operand values.

// ---------------------------------------------------------------------------
// Focus
// ---------------------------------------------------------------------------

// FocusFloorShare is the cross-node generalization of the cross-shard score
// floor: the coordinator injects floors gathered from completed workers, the
// local block-max scan adopts them at its usual chunk boundaries, and every
// injection only ever tightens — so the same strictness argument that makes
// single-node pruning exact carries over. A nil share disables injection,
// and a shard the kernel serves (not size-sorted) never reads one.
type FocusFloorShare struct {
	floor       focusFloor
	tightenings atomic.Int64
}

// NewFocusFloorShare returns an empty share for one in-flight request.
func NewFocusFloorShare() *FocusFloorShare { return &FocusFloorShare{} }

// InjectCompleteness publishes a completeness floor c/n (overlap, length) —
// a completed worker's k-th emission ratio. Out-of-range values are ignored.
func (s *FocusFloorShare) InjectCompleteness(c, n int64) {
	if s == nil || c < 0 || n <= 0 || c >= 1<<32 || n >= 1<<32 {
		return
	}
	if s.floor.publishCmp(c, n) {
		s.tightenings.Add(1)
	}
}

// InjectCloseness publishes a closeness floor (missing count; smaller is
// tighter). Non-positive values are ignored.
func (s *FocusFloorShare) InjectCloseness(missing int64) {
	if s == nil || missing <= 0 {
		return
	}
	if s.floor.publishCl(missing) {
		s.tightenings.Add(1)
	}
}

// Tightenings reports how many injections actually tightened the floor —
// the scatter metric distinguishing useful broadcasts from redundant ones.
func (s *FocusFloorShare) Tightenings() int64 {
	if s == nil {
		return 0
	}
	return s.tightenings.Load()
}

// FloorFromEmission derives the broadcastable floor of a completed shard's
// k-th emission and injects it into share.
func FloorFromEmission(share *FocusFloorShare, measure FocusMeasure, e FocusEmission) {
	if measure == Closeness {
		share.InjectCloseness(int64(e.Missing))
		return
	}
	share.InjectCompleteness(int64(e.ImplLen-e.Missing), int64(e.ImplLen))
}

// TopEmissions is the shard-side Focus scatter entry point: the first k
// emissions of this library's Focus walk — RecommendContext before its
// projection onto ScoredAction — with implBase the shard's global
// implementation-id offset. share, when non-nil, feeds externally injected
// floors into the block-max scan; k must be positive.
//
// Under an external floor the list may come back shorter than k: the floor
// proves the skipped implementations rank strictly below the global k-th
// emission key, so nothing the merge needs is missing.
func (f *Focus) TopEmissions(ctx context.Context, activity []core.ActionID, k int, implBase int64, share *FocusFloorShare) ([]FocusEmission, error) {
	if err := entryErr(ctx); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, nil
	}
	var ext *focusFloor
	if share != nil {
		ext = &share.floor
	}
	return f.emissions(ctx, activity, k, implBase, ext)
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
// quantities, because implementation sets partition and AG multiplicities
// are per-implementation counts.
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

// ShardSurvey computes round one on the shard library.
func (bm *BestMatch) ShardSurvey(ctx context.Context, activity []core.ActionID) (*BestMatchSurvey, error) {
	if err := entryErr(ctx); err != nil {
		return nil, err
	}
	h := intset.FromUnsorted(intset.Clone(activity))
	out := &BestMatchSurvey{
		Candidates: bm.lib.Candidates(h),
		GoalSpace:  bm.lib.GoalSpace(h),
	}
	out.Profile = make([]int64, len(out.GoalSpace))
	slot := make(map[core.GoalID]int, len(out.GoalSpace))
	for i, g := range out.GoalSpace {
		slot[g] = i
	}
	tick := newTicker(ctx)
	for _, a := range h {
		goals, mult := bm.lib.GoalsOfAction(a)
		if err := tick.tick(len(goals)); err != nil {
			return nil, err
		}
		for i, g := range goals {
			// Every goal of AG(a), a ∈ H, is in GS(H) by construction.
			out.Profile[slot[g]] += int64(mult[i])
		}
	}
	return out, nil
}

// ShardVectors computes round two: candidates and goalSpace are the
// coordinator-merged global sets.
func (bm *BestMatch) ShardVectors(ctx context.Context, candidates []core.ActionID, goalSpace []core.GoalID) (*BestMatchVectors, error) {
	if err := entryErr(ctx); err != nil {
		return nil, err
	}
	slot := make(map[core.GoalID]int32, len(goalSpace))
	for i, g := range goalSpace {
		slot[g] = int32(i)
	}
	out := &BestMatchVectors{Off: make([]int32, 1, len(candidates)+1)}
	tick := newTicker(ctx)
	for _, a := range candidates {
		goals, mult := bm.lib.GoalsOfAction(a)
		if err := tick.tick(len(goals) + 1); err != nil {
			return nil, err
		}
		for i, g := range goals {
			if s, ok := slot[g]; ok {
				out.Slot = append(out.Slot, s)
				out.Mult = append(out.Mult, int64(mult[i]))
			}
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

// MergeBestMatchVectors folds the shard vectors and evaluates the exact
// single-node scoring expressions. For cosine, every operand — dot, sumsq,
// the profile norm's square — is an exact integer sum, and the float
// expression matches scoreOne term for term; for other metrics the merged
// integer profile and candidate vectors feed the same vectorspace.Metric a
// single node uses. Vector lists are parallel to candidates; a nil entry in
// vectors contributes nothing (that shard had no postings for the pool).
func MergeBestMatchVectors(metric vectorspace.Metric, candidates []core.ActionID, goalSpace []core.GoalID, profile []int64, vectors []*BestMatchVectors, k int) []ScoredAction {
	if k == 0 || len(candidates) == 0 {
		return nil
	}
	mult := make([]int64, len(goalSpace)) // one candidate's folded vector, by slot
	touched := make([]int32, 0, 16)       // its nonzero slots

	// score finishes one candidate from its folded vector.
	var score func() float64
	if metric == vectorspace.Cosine {
		profSq := int64(0)
		for _, v := range profile {
			profSq += v * v
		}
		profNorm := math.Sqrt(float64(profSq))
		score = func() float64 {
			dot, sumsq := int64(0), int64(0)
			for _, s := range touched {
				dot += mult[s] * profile[s]
				sumsq += mult[s] * mult[s]
			}
			sim := 0.0
			if profNorm > 0 && sumsq > 0 {
				sim = float64(dot) / (profNorm * math.Sqrt(float64(sumsq)))
			}
			return -(1 - sim)
		}
	} else {
		profCounts := make(map[int32]int, len(goalSpace))
		for i, g := range goalSpace {
			profCounts[int32(g)] = int(profile[i])
		}
		profVec := vectorspace.FromCounts(profCounts)
		score = func() float64 {
			counts := make(map[int32]int, len(touched))
			for _, s := range touched {
				counts[int32(goalSpace[s])] = int(mult[s])
			}
			return -metric.Distance(profVec, vectorspace.FromCounts(counts))
		}
	}

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
		sel.offer(ScoredAction{Action: a, Score: score()})
		for _, s := range touched {
			mult[s] = 0
		}
	}
	return sel.sorted()
}
