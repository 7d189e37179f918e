package strategy

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"goalrec/internal/core"
	"goalrec/internal/intset"
)

// BestMatch is the paper's Algorithms 3 and 4 (Section 5.3): it builds a
// goal-based user profile — for every goal of the goal space GS(H), how many
// (action, implementation) pairs of the user activity contribute to it
// (Equations 8 and 9) — represents every candidate action as a vector in the
// same feature space F_GS(H), and ranks candidates by ascending distance to
// the profile (Equation 10).
//
// The goal space and the profile come from the walk that collects the
// candidates (core.GoalTally): H's posting rows, one GI-G lookup per
// posting. Every metric is then scored goal-major on a dense, pooled
// scratch: one pass over the GA rows of GS(H) (goal → distinct actions with
// multiplicities) — the stored row, or the goal's implementation rows when
// they share no action — accumulates every candidate's sums at once, costing
// O(Σ_{g∈GS(H)} |GA(g)|) regardless of connectivity (see DESIGN.md).
//
// The pass accumulates integer-valued sums (bmSums) in float64, and bmScore
// finishes every metric from them, bit-identical to the vectorspace distance
// over the sparse vectors. Scores go into one k-bounded selector as they are
// computed, and the candidate pool lives in the pooled scratch, so a query
// allocates nothing that scales with the pool.
type BestMatch struct {
	lib    *core.Library
	metric Metric
}

// bmScratch carries the per-query dense buffers.
type bmScratch struct {
	goals   core.GoalTally // GS(H) and its profile counts, in first-touch order
	profile []float64      // goals.Counts as floats
	run     []float64      // ShardVectors: one candidate's count per slot
	touched []int          // the slots run holds

	// Goal-major accumulators, indexed by action id and grown to the library
	// at hand per query: acc holds a⃗·H⃗ and ‖a⃗‖², accL1 Σa⃗ and Σmin(a⃗, H⃗)
	// for the L1 metrics only, so cosine scatters 16 bytes per action.
	// All zero between queries (cleared via actTouched).
	acc, accL1 [][2]float64
	actTouched []core.ActionID

	// Candidate pool of the current query and the buffers that generate it.
	cands    []core.ActionID
	candBufs core.CandidateScratch
}

// bmScratchPool serves every BestMatch instance — every metric, library,
// epoch and shard. The action-indexed buffers grow to the library at hand
// where they are used (CandidateScratch, scoreGoalMajor's accumulators);
// the goal tally is sized to each query by its Reset.
var bmScratchPool = sync.Pool{New: func() any { return new(bmScratch) }}

// Metric identifies a Best Match distance between the profile H⃗ and a
// candidate a⃗. Smaller is closer for every metric, matching the paper's
// dist(H⃗, a⃗) ranking; bmScore is the one place each is computed.
type Metric int

const (
	// Cosine is 1 − cosine similarity; the default Best Match metric.
	Cosine Metric = iota
	// Euclidean is the L2 distance.
	Euclidean
	// Manhattan is the L1 distance.
	Manhattan
	// JaccardDist is 1 − weighted Jaccard similarity
	// (Σ min(v_i, w_i) / Σ max(v_i, w_i)).
	JaccardDist
)

// metricNames are the metrics' canonical names, indexed by Metric.
var metricNames = [...]string{Cosine: "cosine", Euclidean: "euclidean", Manhattan: "manhattan", JaccardDist: "jaccard"}

// ParseMetric maps a metric name ("cosine", "euclidean", "manhattan",
// "jaccard") to its Metric, reporting unknown names instead of defaulting
// silently.
func ParseMetric(name string) (Metric, error) {
	for m, n := range metricNames {
		if n == name {
			return Metric(m), nil
		}
	}
	return 0, fmt.Errorf("strategy: unknown metric %q", name)
}

// String returns the metric's canonical name.
func (m Metric) String() string {
	if uint(m) < uint(len(metricNames)) {
		return metricNames[m]
	}
	return fmt.Sprintf("metric(%d)", int(m))
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
func readsL1(m Metric) bool {
	return m == Manhattan || m == JaccardDist
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
// the negated vectorspace distance over the sparse vectors, bit for bit.
func bmScore(m Metric, h, a bmSums) float64 {
	switch m {
	case Euclidean:
		return -math.Sqrt(h.sq + a.sq - 2*a.dot)
	case Manhattan:
		return -(h.sum + a.sum - 2*a.minSum)
	case JaccardDist:
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
	return NewBestMatchMetric(lib, Cosine)
}

// NewBestMatchMetric returns a Best Match strategy with an explicit distance
// metric, used by the ablation benchmarks.
func NewBestMatchMetric(lib *core.Library, m Metric) *BestMatch {
	return &BestMatch{lib: lib, metric: m}
}

// Name implements Recommender.
func (bm *BestMatch) Name() string {
	if bm.metric == Cosine {
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

// RecommendContext implements ContextRecommender: the goal-major pass polls
// ctx at coarse checkpoints. A canceled query returns nil: Best Match ranks
// by distance over the full candidate pool, so a partial scoring is not a
// valid prefix.
func (bm *BestMatch) RecommendContext(ctx context.Context, activity []core.ActionID, k int) ([]ScoredAction, error) {
	if err := entryErr(ctx); err != nil {
		return nil, err
	}
	if k == 0 {
		return nil, nil
	}
	h := intset.FromUnsorted(intset.Clone(activity))
	s := bmScratchPool.Get().(*bmScratch)
	defer bmScratchPool.Put(s)
	// Algorithm 3 (Get-Goal-Based-Profile) rides the candidate walk: every
	// posting of H adds one to its goal's profile count (Equation 9).
	s.goals.Reset(goalBound(bm.lib, h))
	s.cands = bm.lib.AppendCandidates(s.cands[:0], &s.candBufs, h, &s.goals)
	return bm.rank(ctx, s, k)
}

// goalBound bounds the distinct goals h's postings reach, the size a goal
// tally is reset to: one goal per posting, and no more than lib has.
func goalBound(lib *core.Library, h []core.ActionID) int {
	n := 0
	for _, a := range h {
		n += lib.ActionDegree(a)
	}
	return min(n, lib.NumGoals())
}

// rank scores every candidate of the tallied scratch (goal space, profile,
// candidate pool) straight into one k-bounded selector.
func (bm *BestMatch) rank(ctx context.Context, s *bmScratch, k int) ([]ScoredAction, error) {
	candidates := s.cands
	if len(candidates) == 0 {
		return nil, nil
	}
	s.profile = s.profile[:0]
	var h bmSums
	for _, c := range s.goals.Counts {
		p := float64(c)
		s.profile = append(s.profile, p)
		h.add(p, p, true)
	}
	sel := newSelector(k, len(candidates))
	if err := bm.scoreGoalMajor(ctx, s, candidates, h, &sel); err != nil {
		return nil, err
	}
	return sel.sorted(), nil
}

// scoreGoalMajor scores every candidate at once by walking the goal space's
// GA rows: goal g's row pairs each distinct action a with its multiplicity m
// (implementations of g containing a), which a folds into its sums against
// profile[g]. A goal that stores its row is read from the GA-idx; one that
// stores none has action-disjoint implementations, so walking their rows
// visits each action of its row once with m = 1 — the same terms, since
// every action's sums take one term per goal, in goal order either way. Work
// is Σ_{g∈GS(H)} |distinct actions of g|, independent of connectivity. Every
// accumulated term is an integer-valued float summed exactly below 2^53, so
// the scores are bit-identical to the sparse per-candidate vectors'.
func (bm *BestMatch) scoreGoalMajor(ctx context.Context, s *bmScratch, candidates []core.ActionID, h bmSums, sel *selector) error {
	l1 := readsL1(bm.metric)
	n := bm.lib.NumActions()
	if len(s.acc) < n { // in place: nothing is written past len
		s.acc = slices.Grow(s.acc, n-len(s.acc))[:n]
	}
	if l1 && len(s.accL1) < n {
		s.accL1 = slices.Grow(s.accL1, n-len(s.accL1))[:n]
	}
	s.actTouched = slices.Grow(s.actTouched[:0], n) // every action at most once
	tick := newTicker(ctx)
	var tickErr error
	for i, g := range s.goals.Goals {
		pg := s.profile[i]
		acts, mult := bm.lib.StoredGoalRow(g)
		if len(acts) == 0 {
			// m = 1: m·pg = pg and m² = 1, exactly.
			for _, p := range bm.lib.ImplsOfGoal(g) {
				row := bm.lib.Actions(p)
				if tickErr = tick.tick(len(row)); tickErr != nil {
					break
				}
				for _, a := range row {
					acc := &s.acc[a]
					if acc[1] == 0 {
						s.actTouched = append(s.actTouched, a)
					}
					acc[0] += pg
					acc[1]++
					if l1 {
						s.accL1[a][0]++
						s.accL1[a][1] += min(1, pg)
					}
				}
			}
			if tickErr != nil {
				break
			}
			continue
		}
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
