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
// Every metric runs on a dense, pooled scratch representation with two
// interchangeable scoring paths over the AG-idx (see DESIGN.md):
//
//   - candidate-major: each candidate walks its distinct-goal list — the
//     classical loop, shrunk from O(|IS(a)|) postings with random GI-G
//     lookups to a sequential O(|AG(a)|) scan;
//   - goal-major: one pass over the GA-idx rows of GS(H) (goal → distinct
//     actions with multiplicities) accumulates every candidate's sums
//     simultaneously, costing O(Σ_{g∈GS(H)} |AG⁻¹(g)|) regardless of
//     connectivity or the implementation-id layout.
//
// Both paths accumulate the same integer-valued sums (bmSums) in float64, and
// bmScore finishes every metric from them, so the paths are bit-identical to
// each other and to vectorspace.Metric.Distance over the sparse vectors; the
// cheaper path is chosen per query from exact index-derived cost estimates.
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

// bmMode selects the scoring path.
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
	// goal-major query: acc holds a⃗·H⃗ and ‖a⃗‖², accL1 Σa⃗ and Σmin(a⃗, H⃗)
	// for the L1 metrics only, so cosine scatters 16 bytes per action.
	// Zeroed between queries via actTouched.
	acc, accL1 [][2]float64
	actTouched []core.ActionID

	// Candidate pool of the current query and the buffers that generate it.
	cands    []core.ActionID
	candBufs core.CandidateScratch
}

// bmSums are a candidate a⃗'s integer sums over F_GS(H) against the profile
// H⃗: dot = a⃗·H⃗, sq = ‖a⃗‖², and — for the L1 metrics only — sum = Σa⃗ and
// minSum = Σmin(a⃗, H⃗). The profile's own sums are H⃗ against itself.
type bmSums struct{ dot, sq, sum, minSum float64 }

// add folds in one goal on which the candidate has multiplicity c and the
// profile p.
func (a *bmSums) add(c, p float64, l1 bool) {
	a.dot += c * p
	a.sq += c * c
	if l1 {
		a.sum += c
		a.minSum += min(c, p)
	}
}

// readsL1 reports whether bmScore reads m's sum and minSum.
func readsL1(m vectorspace.Metric) bool {
	return m == vectorspace.Manhattan || m == vectorspace.JaccardDist
}

// bmScore finishes a candidate's score, its negated distance to the profile,
// from the candidate's sums a and the profile's sums h. H⃗ is positive on
// every goal of GS(H), so over F_GS(H)
//
//	Σ(H⃗−a⃗)² = ‖H⃗‖² + ‖a⃗‖² − 2·a⃗·H⃗,
//	Σ|H⃗−a⃗| = ΣH⃗ + Σa⃗ − 2·Σmin(a⃗, H⃗),
//	Σmax(a⃗, H⃗) = ΣH⃗ + Σa⃗ − Σmin(a⃗, H⃗).
//
// Every operand is an integer below 2^53, exact in float64, so each score is
// −vectorspace.Metric.Distance over the sparse vectors bit for bit.
func bmScore(m vectorspace.Metric, h, a bmSums) float64 {
	switch m {
	case vectorspace.Euclidean:
		return -math.Sqrt(h.sq + a.sq - 2*a.dot)
	case vectorspace.Manhattan:
		return -(h.sum + a.sum - 2*a.minSum)
	case vectorspace.JaccardDist:
		return -(1 - a.minSum/(h.sum+a.sum-a.minSum))
	}
	sim := 0.0
	if h.sq > 0 && a.sq > 0 {
		sim = a.dot / (math.Sqrt(h.sq) * math.Sqrt(a.sq))
	}
	return -(1 - sim)
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

// Recommend implements Recommender (Algorithm 4, Best Match Ranking). The
// returned Score is the negated distance, so higher still means better.
func (bm *BestMatch) Recommend(activity []core.ActionID, k int) []ScoredAction {
	out, _ := bm.RecommendContext(context.Background(), activity, k)
	return out
}

// RecommendContext implements ContextRecommender: both scoring paths poll ctx
// at coarse checkpoints. A canceled query returns nil: Best Match ranks by
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
	return bm.rank(ctx, s, bm.profile(s, h), k)
}

// profile is Algorithm 3 (Get-Goal-Based-Profile): it stamps GS(h) into s
// and accumulates the dense profile H⃗ (Equation 9) into s.profile, aligned
// with the returned goal space. Action a of h adds its per-goal
// implementation multiplicities; every goal of AG(a) is in GS(h) by
// construction.
func (bm *BestMatch) profile(s *bmScratch, h []core.ActionID) []core.GoalID {
	goalSpace := bm.lib.GoalSpace(h)
	s.stamp(goalSpace)
	for _, a := range h {
		goals, mult := bm.lib.GoalsOfAction(a)
		for i, g := range goals {
			s.profile[s.slot[g]] += float64(mult[i])
		}
	}
	return goalSpace
}

// rank scores every candidate of the stamped scratch (goal space, dense
// profile, candidate pool) through whichever scoring path the per-query cost
// estimates favor, straight into one k-bounded selector.
func (bm *BestMatch) rank(ctx context.Context, s *bmScratch, goalSpace []core.GoalID, k int) ([]ScoredAction, error) {
	candidates := s.cands
	var h bmSums
	for _, p := range s.profile {
		h.add(p, p, true)
	}
	sel := newSelector(k, len(candidates))
	var err error
	if bm.pickMode(candidates, goalSpace) == bmGoalMajor {
		err = bm.scoreGoalMajor(ctx, s, candidates, goalSpace, h, &sel)
	} else {
		err = bm.scoreCandidateMajor(ctx, s, candidates, h, &sel)
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
	s.stamp(v.goal)
	for i, c := range v.gcnt {
		s.profile[i] = float64(c)
	}
	return bm.rank(ctx, s, v.goal, k)
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
// AG-idx row: its sums come from the (goal, multiplicity) pairs that fall
// inside the stamped goal space.
func (bm *BestMatch) scoreCandidateMajor(ctx context.Context, s *bmScratch, candidates []core.ActionID, h bmSums, sel *selector) error {
	tick := newTicker(ctx)
	l1 := readsL1(bm.metric)
	for _, a := range candidates {
		if err := tick.tick(1); err != nil {
			return err
		}
		goals, mult := bm.lib.GoalsOfAction(a)
		var sums bmSums
		for i, g := range goals {
			if s.mark[g] != s.version {
				continue // contributes to a goal outside F_GS(H)
			}
			sums.add(float64(mult[i]), s.profile[s.slot[g]], l1)
		}
		sel.offer(ScoredAction{Action: a, Score: bmScore(bm.metric, h, sums)})
	}
	return nil
}

// scoreGoalMajor scores every candidate at once by walking the goal space's
// GA-idx rows: goal g's row pairs each distinct action a with its
// multiplicity m (implementations of g containing a), which a folds into its
// sums against profile[g]. Work is Σ_{g∈GS(H)} |distinct actions of g| over
// contiguous rows — independent of connectivity and of the
// implementation-id layout (no per-implementation dereferences). Every
// accumulated term is the same integer-valued float the candidate-major path
// adds, summed exactly below 2^53, so the scores are bit-identical.
func (bm *BestMatch) scoreGoalMajor(ctx context.Context, s *bmScratch, candidates []core.ActionID, goalSpace []core.GoalID, h bmSums, sel *selector) error {
	l1 := readsL1(bm.metric)
	if s.acc == nil {
		s.acc = make([][2]float64, bm.lib.NumActions())
		if l1 {
			s.accL1 = make([][2]float64, bm.lib.NumActions())
		}
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
			m, acc := float64(mult[j]), &s.acc[a]
			if acc[1] == 0 {
				s.actTouched = append(s.actTouched, a)
			}
			acc[0] += m * pg
			acc[1] += m * m
			if l1 {
				s.accL1[a][0] += m
				s.accL1[a][1] += min(m, pg)
			}
		}
	}
	if tickErr == nil {
		for _, a := range candidates {
			sums := bmSums{dot: s.acc[a][0], sq: s.acc[a][1]}
			if l1 {
				sums.sum, sums.minSum = s.accL1[a][0], s.accL1[a][1]
			}
			sel.offer(ScoredAction{Action: a, Score: bmScore(bm.metric, h, sums)})
		}
	}
	// Return the pooled accumulators clean, on an abort too.
	for _, a := range s.actTouched {
		s.acc[a] = [2]float64{}
		if l1 {
			s.accL1[a] = [2]float64{}
		}
	}
	return tickErr
}
