package strategy

import (
	"context"
	"math"
	"sync"

	"goalrec/internal/core"
	"goalrec/internal/intset"
	"goalrec/internal/vectorspace"
)

// BestMatch is the paper's Algorithms 3 and 4 (Section 5.3): it builds a
// goal-based user profile — for every goal of the goal space GS(H), how many
// (action, implementation) pairs of the user activity contribute to it
// (Equations 8 and 9) — represents every candidate action as a vector in the
// same feature space F_GS(H), and ranks candidates by ascending distance to
// the profile (Equation 10).
//
// The default cosine metric runs on a dense, pooled scratch representation
// with two interchangeable scoring paths over the AG-idx (see DESIGN.md):
//
//   - candidate-major: each candidate walks its distinct-goal list — the
//     classical loop, shrunk from O(|IS(a)|) postings with random GI-G
//     lookups to a sequential O(|AG(a)|) scan;
//   - goal-major: one pass over the GA-idx rows of GS(H) (goal → distinct
//     actions with multiplicities) accumulates every candidate's dot product
//     and norm simultaneously, costing O(Σ_{g∈GS(H)} |AG⁻¹(g)|) regardless
//     of connectivity or the implementation-id layout.
//
// Both paths accumulate the same integer-valued sums in float64, so they are
// bit-identical; the cheaper one is chosen per query from exact index-derived
// cost estimates. The alternative metrics use the sparse vectorspace path.
// Every path offers its scores into one k-bounded selector as it computes
// them, and the candidate pool lives in the pooled scratch, so a query
// allocates nothing that scales with the pool.
type BestMatch struct {
	lib    *core.Library
	metric vectorspace.Metric
	pool   sync.Pool // *bmScratch

	// mode is fixed after construction: tests pin each path, and the zero
	// value picks per query.
	mode bmMode
}

// bmMode selects the cosine scoring path.
type bmMode int

const (
	bmAuto bmMode = iota // pick per query from cost estimates
	bmCandidateMajor
	bmGoalMajor
)

// bmScratch carries the per-query dense buffers. Goal membership uses
// version stamping so the numGoals-sized arrays never need clearing.
type bmScratch struct {
	mark    []uint32  // mark[g] == version ⇔ g ∈ GS(H)
	slot    []int32   // dense index of g within the goal space
	version uint32    //
	profile []float64 // profile counts per goal-space slot

	// Goal-major accumulators, indexed by action id and allocated on first
	// goal-major query. dot and sumsq are zeroed between queries via
	// actTouched.
	dot        []float64
	sumsq      []float64
	actTouched []core.ActionID

	// Candidate pool of the current query and the buffers that generate it.
	cands    []core.ActionID
	candBufs core.CandidateScratch
}

// NewBestMatch returns a Best Match strategy over lib using the cosine
// distance, the conventional choice for sparse count profiles.
func NewBestMatch(lib *core.Library) *BestMatch {
	return NewBestMatchMetric(lib, vectorspace.Cosine)
}

// NewBestMatchMetric returns a Best Match strategy with an explicit distance
// metric, used by the ablation benchmarks.
func NewBestMatchMetric(lib *core.Library, m vectorspace.Metric) *BestMatch {
	bm := &BestMatch{lib: lib, metric: m}
	bm.pool.New = func() interface{} {
		return &bmScratch{
			mark: make([]uint32, lib.NumGoals()),
			slot: make([]int32, lib.NumGoals()),
		}
	}
	return bm
}

// Name implements Recommender.
func (bm *BestMatch) Name() string {
	if bm.metric == vectorspace.Cosine {
		return "best-match"
	}
	return "best-match-" + bm.metric.String()
}

// Profile builds the goal-based user profile H⃗ of Algorithm 3
// (Get-Goal-Based-Profile): the aggregated goal-contribution vector of every
// action in the activity, in the feature space spanned by GS(activity).
func (bm *BestMatch) Profile(activity []core.ActionID) vectorspace.Vector {
	h := intset.FromUnsorted(intset.Clone(activity))
	counts := make(map[int32]int)
	for _, a := range h {
		goals, mult := bm.lib.GoalsOfAction(a)
		for i, g := range goals {
			counts[int32(g)] += int(mult[i])
		}
	}
	return vectorspace.FromCounts(counts)
}

// actionVector represents candidate action a in F_GS(H) (Equation 8): for
// every goal of the user goal space, the number of implementations through
// which a contributes to it. goalSpace must be sorted.
func (bm *BestMatch) actionVector(a core.ActionID, goalSpace []core.GoalID) vectorspace.Vector {
	counts := make(map[int32]int)
	goals, mult := bm.lib.GoalsOfAction(a)
	for i, g := range goals {
		if intset.Contains(goalSpace, g) {
			counts[int32(g)] = int(mult[i])
		}
	}
	return vectorspace.FromCounts(counts)
}

// Recommend implements Recommender (Algorithm 4, Best Match Ranking). The
// returned Score is the negated distance, so higher still means better.
func (bm *BestMatch) Recommend(activity []core.ActionID, k int) []ScoredAction {
	out, _ := bm.RecommendContext(context.Background(), activity, k)
	return out
}

// RecommendContext implements ContextRecommender: every scoring path —
// candidate-major, goal-major, and the sparse non-cosine loop — polls ctx at
// coarse checkpoints. A canceled query returns nil: Best Match ranks by
// distance over the full candidate pool, so a partial scoring is not a valid
// prefix.
func (bm *BestMatch) RecommendContext(ctx context.Context, activity []core.ActionID, k int) ([]ScoredAction, error) {
	if err := entryErr(ctx); err != nil {
		return nil, err
	}
	if k == 0 {
		return nil, nil
	}
	h := intset.FromUnsorted(intset.Clone(activity))
	s := bm.pool.Get().(*bmScratch)
	defer bm.pool.Put(s)
	s.cands = bm.lib.AppendCandidates(s.cands[:0], &s.candBufs, h)
	if len(s.cands) == 0 {
		return nil, nil
	}
	goalSpace := bm.lib.GoalSpace(h)
	if bm.metric != vectorspace.Cosine {
		return bm.rankSparse(ctx, bm.Profile(h), s.cands, goalSpace, k)
	}

	// Dense profile (Equation 9): action a of H adds its per-goal
	// implementation multiplicities. Every goal of AG(a) is in GS(H) by
	// construction.
	s.stamp(goalSpace)
	for _, a := range h {
		goals, mult := bm.lib.GoalsOfAction(a)
		for i, g := range goals {
			s.profile[s.slot[g]] += float64(mult[i])
		}
	}
	return bm.rankCosine(ctx, s, goalSpace, k)
}

// rankSparse is the non-cosine path: every candidate's sparse vector against
// the sparse profile through the vectorspace metric.
func (bm *BestMatch) rankSparse(ctx context.Context, profile vectorspace.Vector, candidates []core.ActionID, goalSpace []core.GoalID, k int) ([]ScoredAction, error) {
	tick := newTicker(ctx)
	sel := newSelector(k, len(candidates))
	for _, a := range candidates {
		if err := tick.tick(1); err != nil {
			return nil, err
		}
		d := bm.metric.Distance(profile, bm.actionVector(a, goalSpace))
		sel.offer(ScoredAction{Action: a, Score: -d})
	}
	return sel.sorted(), nil
}

// rankCosine is the allocation-light fast path over the stamped scratch (goal
// space, dense profile, candidate pool): it scores every candidate through
// whichever scoring path the per-query cost estimates favor, straight into
// one k-bounded selector.
func (bm *BestMatch) rankCosine(ctx context.Context, s *bmScratch, goalSpace []core.GoalID, k int) ([]ScoredAction, error) {
	candidates := s.cands
	profNorm := s.profileNorm()
	sel := newSelector(k, len(candidates))
	var err error
	if bm.pickMode(candidates, goalSpace) == bmGoalMajor {
		err = bm.scoreGoalMajor(ctx, s, candidates, goalSpace, profNorm, &sel)
	} else {
		err = bm.scoreCandidateMajor(ctx, s, candidates, profNorm, &sel)
	}
	if err != nil {
		return nil, err
	}
	return sel.sorted(), nil
}

// stamp marks goalSpace as the current goal space and zeroes the per-slot
// profile. Version 0 is never valid after the first wrap, so the version
// bumps twice on wraparound.
func (s *bmScratch) stamp(goalSpace []core.GoalID) {
	s.version++
	if s.version == 0 {
		for i := range s.mark {
			s.mark[i] = 0
		}
		s.version = 1
	}
	if cap(s.profile) < len(goalSpace) {
		s.profile = make([]float64, len(goalSpace))
	}
	s.profile = s.profile[:len(goalSpace)]
	clear(s.profile)
	for i, g := range goalSpace {
		s.mark[g] = s.version
		s.slot[g] = int32(i)
	}
}

// profileNorm returns ‖H⃗‖ from the stamped profile. The squares sum in
// slot (goal-ascending) order on every path, so the norm is bit-identical
// between from-scratch and view scoring.
func (s *bmScratch) profileNorm() float64 {
	n := 0.0
	for _, v := range s.profile {
		n += v * v
	}
	return math.Sqrt(n)
}

// RecommendView implements ViewRecommender: candidates, goal space, and the
// dense profile all come from the view's materialized state — no posting or
// AG-row accumulation — and flow into the same scoring paths as a
// from-scratch query; rankings are bit-identical to RecommendContext over
// the view's activity.
func (bm *BestMatch) RecommendView(ctx context.Context, v *CounterView, k int) ([]ScoredAction, error) {
	if err := entryErr(ctx); err != nil {
		return nil, err
	}
	if v.lib != bm.lib {
		return nil, ErrViewLibrary
	}
	if k == 0 {
		return nil, nil
	}
	s := bm.pool.Get().(*bmScratch)
	defer bm.pool.Put(s)
	s.cands = v.Candidates(s.cands[:0])
	if len(s.cands) == 0 {
		return nil, nil
	}
	goalSpace := v.goal
	if bm.metric != vectorspace.Cosine {
		counts := make(map[int32]int, len(goalSpace))
		for i, g := range goalSpace {
			counts[int32(g)] = int(v.gcnt[i])
		}
		return bm.rankSparse(ctx, vectorspace.FromCounts(counts), s.cands, goalSpace, k)
	}
	s.stamp(goalSpace)
	for i := range goalSpace {
		s.profile[i] = float64(v.gcnt[i])
	}
	return bm.rankCosine(ctx, s, goalSpace, k)
}

// pickMode resolves the scoring path for one query. In auto mode it compares
// the exact slot counts each path will visit: candidate-major walks every
// candidate's AG row, goal-major walks every GA row of the goal space (with
// roughly twice the per-slot work for the scatter-write bookkeeping).
func (bm *BestMatch) pickMode(candidates []core.ActionID, goalSpace []core.GoalID) bmMode {
	if bm.mode != bmAuto {
		return bm.mode
	}
	candCost := 0
	for _, a := range candidates {
		candCost += bm.lib.GoalDegree(a)
	}
	goalCost := 0
	for _, g := range goalSpace {
		goalCost += bm.lib.GoalActionCount(g)
	}
	if 2*goalCost <= candCost {
		return bmGoalMajor
	}
	return bmCandidateMajor
}

// scoreCandidateMajor scores each candidate by a sequential scan of its
// AG-idx row: dot and ‖a⃗‖² come from the (goal, multiplicity) pairs that
// fall inside the stamped goal space.
func (bm *BestMatch) scoreCandidateMajor(ctx context.Context, s *bmScratch, candidates []core.ActionID, profNorm float64, sel *selector) error {
	tick := newTicker(ctx)
	for _, a := range candidates {
		if err := tick.tick(1); err != nil {
			return err
		}
		sel.offer(bm.scoreOne(s, a, profNorm))
	}
	return nil
}

// scoreOne computes one candidate's negated cosine distance from the stamped
// scratch.
func (bm *BestMatch) scoreOne(s *bmScratch, a core.ActionID, profNorm float64) ScoredAction {
	goals, mult := bm.lib.GoalsOfAction(a)
	dot, sumsq := 0.0, 0.0
	for i, g := range goals {
		if s.mark[g] != s.version {
			continue // contributes to a goal outside F_GS(H)
		}
		c := float64(mult[i])
		dot += c * s.profile[s.slot[g]]
		sumsq += c * c
	}
	sim := 0.0
	if profNorm > 0 && sumsq > 0 {
		sim = dot / (profNorm * math.Sqrt(sumsq))
	}
	return ScoredAction{Action: a, Score: -(1 - sim)}
}

// scoreGoalMajor scores every candidate at once by walking the goal space's
// GA-idx rows: goal g's row pairs each distinct action a with its
// multiplicity m (implementations of g containing a), adding m·profile[g]
// to a's dot product and m² to ‖a⃗‖². Work is Σ_{g∈GS(H)} |distinct
// actions of g| over contiguous rows — independent of connectivity and of
// the implementation-id layout (no per-implementation dereferences). Every accumulated term is the
// same integer-valued float the candidate-major path multiplies, summed
// exactly below 2^53, so the scores are bit-identical to scoreOne.
func (bm *BestMatch) scoreGoalMajor(ctx context.Context, s *bmScratch, candidates []core.ActionID, goalSpace []core.GoalID, profNorm float64, sel *selector) error {
	if s.dot == nil {
		n := bm.lib.NumActions()
		s.dot = make([]float64, n)
		s.sumsq = make([]float64, n)
	}
	s.actTouched = s.actTouched[:0]
	tick := newTicker(ctx)
	var tickErr error
	for i, g := range goalSpace {
		pg := s.profile[i]
		acts, mult := bm.lib.ActionsOfGoal(g)
		if tickErr = tick.tick(len(acts)); tickErr != nil {
			break
		}
		for j, a := range acts {
			m := float64(mult[j])
			if s.sumsq[a] == 0 {
				s.actTouched = append(s.actTouched, a)
			}
			s.dot[a] += m * pg
			s.sumsq[a] += m * m
		}
	}
	if tickErr != nil {
		// Return the pooled accumulators clean before aborting.
		for _, a := range s.actTouched {
			s.dot[a] = 0
			s.sumsq[a] = 0
		}
		return tickErr
	}
	for _, a := range candidates {
		sim := 0.0
		if sumsq := s.sumsq[a]; profNorm > 0 && sumsq > 0 {
			sim = s.dot[a] / (profNorm * math.Sqrt(sumsq))
		}
		sel.offer(ScoredAction{Action: a, Score: -(1 - sim)})
	}
	for _, a := range s.actTouched {
		s.dot[a] = 0
		s.sumsq[a] = 0
	}
	return nil
}
