package strategy

import (
	"context"
	"fmt"
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

// breadthShardMaxActions bounds the action-id space for which the sharded
// path is allowed: each worker carries a dense float64 score array of that
// size, so above the bound a query falls back to the sequential kernel
// rather than multiplying a very large allocation by the worker count.
const breadthShardMaxActions = 1 << 20

// Breadth is the paper's Algorithm 2: it walks every implementation of the
// user's implementation space once and accumulates a weight into the score
// of every candidate action the implementation contains, so that actions
// participating in many well-connected implementations rank first.
//
// The walk is one body (credit) fed by either counter source: the shared
// counter kernel (see kernel.go), whose one pass over H's posting rows yields
// |A_p ∩ H| for every associated implementation, or a CounterView that
// already holds those counters. Every weighting's comm follows from the
// counter and |A_p| with no per-implementation set operations and no
// materialized, sorted IS(H). Large queries shard the kernel pass; each
// worker accumulates into its own dense score array and the arrays are
// folded in fixed worker order. Every comm is integer-valued, so float64
// score sums are exact in any order and all paths rank bit-identically.
// Scratch is pooled, so a query allocates only its result.
type Breadth struct {
	lib       *core.Library
	weighting BreadthWeighting
	conc      concurrency
	pool      sync.Pool // *breadthScratch
}

// breadthScratch is the pooled per-query state: the kernel counters, dense H
// membership, and one score accumulator per shard — acc[0] alone on the
// sequential and view paths.
type breadthScratch struct {
	overlapScratch
	inH []bool // dense H membership, set and cleared per query
	acc []breadthAcc
}

// breadthAcc is one score accumulator: scores is indexed by action id and
// re-zeroed through actions, the ids it touched.
type breadthAcc struct {
	scores  []float64
	actions []core.ActionID
}

// NewBreadth returns a Breadth strategy over lib with the default Overlap
// weighting.
func NewBreadth(lib *core.Library) *Breadth {
	return NewBreadthWeighted(lib, Overlap)
}

// NewBreadthWeighted returns a Breadth strategy with an explicit weighting,
// used by the ablation benchmarks.
func NewBreadthWeighted(lib *core.Library, w BreadthWeighting) *Breadth {
	b := &Breadth{lib: lib, weighting: w}
	b.pool.New = func() interface{} {
		return &breadthScratch{inH: make([]bool, lib.NumActions())}
	}
	return b
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
	stream := b.lib.OverlapStream(h)
	if stream == 0 {
		return nil, nil
	}
	workers := b.conc.workersFor(stream, b.lib.NumImplementations())
	if workers > 1 && b.lib.NumActions() > breadthShardMaxActions {
		workers = 1
	}
	s := b.pool.Get().(*breadthScratch)
	defer b.pool.Put(s)
	acc := s.accumulators(workers)

	// Kernel pass: each shard's visit scores its touched implementations
	// from the shared counter array into its own accumulator.
	s.markH(h, true)
	err := s.run(ctx, b.lib, h, workers, func(shard int, touched []core.ImplID, tick *ticker) error {
		scores, actions := acc[shard].scores, acc[shard].actions
		var err error
		// One checkpoint per run of implementations, not one each: a call
		// inside the walk makes it spill its registers around every credit.
		for len(touched) > 0 {
			run := touched[:min(len(touched), checkInterval)]
			if err = tick.tick(len(run)); err != nil {
				break
			}
			for _, p := range run {
				actions = b.credit(b.lib.Actions(p), s.cnt[p], len(h), s.inH, scores, actions)
			}
			touched = touched[len(run):]
		}
		acc[shard].actions = actions
		return err
	})
	s.markH(h, false)
	return drainScores(acc, k, err)
}

// RecommendView implements ViewRecommender: the same walk over the view's
// materialized counters, with rankings bit-identical to RecommendContext
// over the view's activity.
func (b *Breadth) RecommendView(ctx context.Context, v *CounterView, k int) ([]ScoredAction, error) {
	if err := entryErr(ctx); err != nil {
		return nil, err
	}
	if v.lib != b.lib {
		return nil, ErrViewLibrary
	}
	if k == 0 || len(v.impls) == 0 {
		return nil, nil
	}
	s := b.pool.Get().(*breadthScratch)
	defer b.pool.Put(s)
	acc := s.accumulators(1)
	s.markH(v.h, true)
	tick := newTicker(ctx)
	scores, actions := acc[0].scores, acc[0].actions
	var err error
	for lo := 0; lo < len(v.impls); lo += checkInterval {
		hi := min(lo+checkInterval, len(v.impls))
		if err = tick.tick(hi - lo); err != nil {
			break
		}
		for i := lo; i < hi; i++ {
			actions = b.credit(b.lib.Actions(v.impls[i]), v.cnt[i], len(v.h), s.inH, scores, actions)
		}
	}
	acc[0].actions = actions
	s.markH(v.h, false)
	return drainScores(acc, k, err)
}

// credit is Algorithm 2's loop body, shared by both counter sources: an
// implementation with action set acts and counter cnt = |A_p ∩ H| adds its
// comm — derived from the counter and |A_p| alone — to the score of each of
// its actions outside H, and the first-touched ones join actions. comm is
// always integer-valued, so the float64 sums are exact regardless of
// accumulation or fold order. It takes the action set, not the id, to stay
// within the inlining budget: as a call per implementation the walk measured
// ≈10 % slower.
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

// drainScores ends a query: it folds the shard accumulators into acc[0] in
// fixed worker order, offers the sums straight into a k-bounded selector —
// so the result owns exactly the entries it returns — and re-zeroes every
// accumulator for the next query. An aborted query (err != nil) only
// re-zeroes: every shard may hold partial scores.
func drainScores(acc []breadthAcc, k int, err error) ([]ScoredAction, error) {
	main := &acc[0]
	for i := 1; i < len(acc); i++ {
		for _, a := range acc[i].actions {
			if main.scores[a] == 0 {
				main.actions = append(main.actions, a)
			}
			main.scores[a] += acc[i].scores[a]
			acc[i].scores[a] = 0
		}
		acc[i].actions = acc[i].actions[:0]
	}
	sel := newSelector(k, len(main.actions))
	for _, a := range main.actions {
		if err == nil {
			sel.offer(ScoredAction{Action: a, Score: main.scores[a]})
		}
		main.scores[a] = 0
	}
	main.actions = main.actions[:0]
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

// accumulators returns the first n score accumulators, allocated on demand
// (each carries a dense float64 array over the action-id space).
func (s *breadthScratch) accumulators(n int) []breadthAcc {
	for len(s.acc) < n {
		s.acc = append(s.acc, breadthAcc{scores: make([]float64, len(s.inH))})
	}
	return s.acc[:n]
}
