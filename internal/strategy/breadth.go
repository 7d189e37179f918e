package strategy

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"goalrec/internal/core"
	"goalrec/internal/intset"
)

// BreadthWeighting selects how much one associated implementation
// contributes to the score of the candidate actions it contains. The paper's
// Equation 6 is typographically damaged; Algorithm 2 accumulates a per-
// implementation quantity "comm" into every member action. The three
// readings below are provided, with Overlap as the default (see DESIGN.md).
type BreadthWeighting int

const (
	// Overlap weights each implementation by |A_p ∩ H|: candidates earn more
	// from implementations strongly connected to the user activity. This is
	// the default reading and matches the prose ("actions that belong in as
	// many sets as possible together with as many as possible actions from
	// the user activity").
	Overlap BreadthWeighting = iota
	// Count weights every associated implementation equally (comm = 1): the
	// score of a candidate is simply |IS(a) ∩ IS(H)|, its utility.
	Count
	// Union weights each implementation by |A_p ∪ H|, the literal reading of
	// the published Equation 6.
	Union
)

// String returns the weighting's canonical name.
func (w BreadthWeighting) String() string {
	switch w {
	case Count:
		return "count"
	case Union:
		return "union"
	}
	return "overlap"
}

// ParseBreadthWeighting maps a weighting name ("overlap", "count", "union")
// to its constant, reporting unknown names instead of defaulting silently.
func ParseBreadthWeighting(name string) (BreadthWeighting, error) {
	switch name {
	case "overlap":
		return Overlap, nil
	case "count":
		return Count, nil
	case "union":
		return Union, nil
	}
	return Overlap, fmt.Errorf("strategy: unknown breadth weighting %q", name)
}

// Breadth is the paper's Algorithm 2: it walks every implementation of the
// user's implementation space once and accumulates a weight into the score
// of every candidate action the implementation contains, so that actions
// participating in many well-connected implementations rank first.
//
// The walk is one driver (score) fed by the shared counter kernel (see
// kernel.go), whose one pass over H's posting rows yields |A_p ∩ H| for
// every associated implementation. Every weighting's comm follows from the
// counter and |A_p| with no per-implementation set operations and no
// materialized, sorted IS(H). Every comm is integer-valued, so float64
// score sums are exact in any order, and a query and its shard partials
// rank bit-identically.
// Scratch is pooled, so a query allocates only its result.
type Breadth struct {
	lib       *core.Library
	weighting BreadthWeighting
}

// breadthScratch is the pooled per-query state: dense H membership and the
// score accumulator — scores is indexed by action id and re-zeroed through
// actions, the ids it touched.
type breadthScratch struct {
	inH     []bool // dense H membership, set and cleared per query
	scores  []float64
	actions []core.ActionID
}

// breadthScratchPool serves every Breadth instance, whatever its weighting,
// library, epoch or shard; getBreadthScratch sizes the action-indexed
// buffers to the library at hand.
var breadthScratchPool = sync.Pool{New: func() any { return new(breadthScratch) }}

// getBreadthScratch takes a scratch from the pool with inH and scores
// covering lib's action ids. Both are all zero between queries and nothing is
// written past their length, so a short pair is grown in place.
func getBreadthScratch(lib *core.Library) *breadthScratch {
	s := breadthScratchPool.Get().(*breadthScratch)
	if n := lib.NumActions(); len(s.inH) < n {
		s.inH = slices.Grow(s.inH, n-len(s.inH))[:n]
		s.scores = slices.Grow(s.scores, n-len(s.scores))[:n]
	}
	return s
}

// NewBreadth returns a Breadth strategy over lib with the default Overlap
// weighting.
func NewBreadth(lib *core.Library) *Breadth {
	return NewBreadthWeighted(lib, Overlap)
}

// NewBreadthWeighted returns a Breadth strategy with an explicit weighting,
// used by the ablation benchmarks.
func NewBreadthWeighted(lib *core.Library, w BreadthWeighting) *Breadth {
	return &Breadth{lib: lib, weighting: w}
}

// Name implements Recommender.
func (b *Breadth) Name() string {
	if b.weighting == Overlap {
		return "breadth"
	}
	return "breadth-" + b.weighting.String()
}

// Recommend implements Recommender.
func (b *Breadth) Recommend(activity []core.ActionID, k int) []ScoredAction {
	out, _ := b.RecommendContext(context.Background(), activity, k)
	return out
}

// RecommendContext implements ContextRecommender: the implementation-space
// accumulation loop polls ctx at coarse checkpoints. A canceled query
// returns nil — partially accumulated scores would rank candidates
// incorrectly, so none are surfaced.
func (b *Breadth) RecommendContext(ctx context.Context, activity []core.ActionID, k int) ([]ScoredAction, error) {
	if err := entryErr(ctx); err != nil {
		return nil, err
	}
	if k == 0 {
		return nil, nil
	}
	h := intset.FromUnsorted(intset.Clone(activity))
	ks := kernelScratchPool.Get().(*kernelScratch)
	defer kernelScratchPool.Put(ks)
	impls, cnt, err := ks.gather(ctx, b.lib, h)
	if err != nil {
		return nil, err
	}
	return b.score(ctx, h, impls, cnt, k)
}

// score is Breadth's one scoring driver, over the kernel's gathered
// counters: every implementation impls[i] credits its candidates from
// cnt[i] = |A_impls[i] ∩ H|.
func (b *Breadth) score(ctx context.Context, h []core.ActionID, impls []core.ImplID, cnt []int32, k int) ([]ScoredAction, error) {
	s := getBreadthScratch(b.lib)
	defer breadthScratchPool.Put(s)
	s.markH(h, true)
	tick := newTicker(ctx)
	scores, actions := s.scores, s.actions
	var err error
	// One checkpoint per run of implementations, not one each: a call
	// inside the walk makes it spill its registers around every credit.
	for lo := 0; lo < len(impls); lo += checkInterval {
		hi := min(lo+checkInterval, len(impls))
		if err = tick.tick(hi - lo); err != nil {
			break
		}
		for i := lo; i < hi; i++ {
			actions = b.credit(b.lib.Actions(impls[i]), cnt[i], len(h), s.inH, scores, actions)
		}
	}
	s.actions = actions
	s.markH(h, false)
	return s.drainScores(k, err)
}

// credit is Algorithm 2's loop body: an implementation with action set acts
// and counter cnt = |A_p ∩ H| adds its comm — derived from the counter and
// |A_p| alone — to the score of each of its actions outside H, and the
// first-touched ones join actions. comm is always integer-valued, so the
// float64 sums are exact regardless of accumulation order. It takes the
// action set, not the id, to stay within the inlining budget: as a call per
// implementation the walk measured ≈10 % slower.
func (b *Breadth) credit(acts []core.ActionID, cnt int32, hLen int, inH []bool, scores []float64, actions []core.ActionID) []core.ActionID {
	comm := breadthComm(b.weighting, len(acts), hLen, cnt)
	for _, a := range acts {
		if !inH[a] {
			if scores[a] == 0 {
				actions = append(actions, a)
			}
			scores[a] += comm
		}
	}
	return actions
}

// breadthComm is one implementation's contribution to the score of every
// candidate action it contains — a pure function of (|A_p|, |H|, |A_p ∩ H|).
// Every value is integer-valued, so float64 sums are exact in any
// accumulation order.
func breadthComm(w BreadthWeighting, implLen, hLen int, cnt int32) float64 {
	switch w {
	case Count:
		return 1
	case Union:
		// |A_p ∪ H| = |A_p| + |H| − |A_p ∩ H|; unknown-to-library activity
		// ids count toward |H| exactly as the set union did.
		return float64(implLen + hLen - int(cnt))
	default:
		return float64(cnt)
	}
}

// drainScores ends a query: it offers the accumulated sums straight into a
// k-bounded selector — so the result owns exactly the entries it returns —
// and re-zeroes the accumulator for the next query. An aborted query
// (err != nil) only re-zeroes: the accumulator may hold partial scores.
func (s *breadthScratch) drainScores(k int, err error) ([]ScoredAction, error) {
	sel := newSelector(k, len(s.actions))
	for _, a := range s.actions {
		if err == nil {
			sel.offer(ScoredAction{Action: a, Score: s.scores[a]})
		}
		s.scores[a] = 0
	}
	s.actions = s.actions[:0]
	if err != nil {
		return nil, err
	}
	return sel.sorted(), nil
}

// markH sets or clears the dense H membership: every slot visit of the walk
// becomes an O(1) array read instead of a binary search over h.
func (s *breadthScratch) markH(h []core.ActionID, in bool) {
	for _, a := range h {
		if a >= 0 && int(a) < len(s.inH) {
			s.inH[a] = in
		}
	}
}
