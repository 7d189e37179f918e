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
// The walk runs on the shared counter kernel (see kernel.go): one pass over
// H's posting rows yields |A_p ∩ H| for every associated implementation, so
// every weighting's comm follows from the counter and the stored |A_p| with
// no per-implementation set operations and no materialized, sorted IS(H).
// Large queries shard the pass; each worker accumulates into its own dense
// score array and the arrays are merged in fixed worker order. Every comm is
// integer-valued, so float64 score sums are exact in any order and all paths
// rank bit-identically. Scratch is pooled, so a query allocates only its
// result.
type Breadth struct {
	lib       *core.Library
	weighting BreadthWeighting
	conc      concurrency
	pool      sync.Pool // *breadthScratch
	pruning   bool
	stats     *PruneStats
}

// breadthScratch is the pooled per-query state: the kernel counters plus the
// merged score accumulator, dense H membership, and the per-worker
// accumulators of the sharded path.
type breadthScratch struct {
	overlapScratch
	scores  []float64 // indexed by action id, zeroed via actTouched
	actions []core.ActionID
	inH     []bool // dense H membership, set and cleared per query
	workers []breadthWorker
	rowBuf  []core.ImplID // posting decode buffer for the candidate-major walk
}

// breadthWorker is one shard's private score accumulator.
type breadthWorker struct {
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
		return &breadthScratch{
			scores: make([]float64, lib.NumActions()),
			inH:    make([]bool, lib.NumActions()),
		}
	}
	return b
}

// SetConcurrency tunes the sharded implementation scan: maxWorkers bounds
// the per-query worker pool (≤ 0 selects GOMAXPROCS) and shardMin is the
// posting-stream size below which a query stays sequential (≤ 0 selects the
// default). Rankings are bit-identical for every setting. It must be called
// before the strategy starts serving queries.
func (b *Breadth) SetConcurrency(maxWorkers, shardMin int) {
	b.conc = concurrency{maxWorkers: maxWorkers, shardMin: shardMin}
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
	if b.pruning && k > 0 && k <= breadthPruneMaxK {
		return b.recommendPruned(ctx, h, stream, k)
	}

	workers := b.conc.workersFor(stream, b.lib.NumImplementations())
	if workers > 1 && b.lib.NumActions() > breadthShardMaxActions {
		workers = 1
	}
	s := b.pool.Get().(*breadthScratch)
	defer b.pool.Put(s)
	s.actions = s.actions[:0]
	// The sequential path accumulates straight into the scratch's main
	// arrays; sharded workers each get a private accumulator, merged below.
	ws := []breadthWorker{{scores: s.scores, actions: s.actions}}
	if workers > 1 {
		ws = s.shardWorkers(workers, len(s.scores))
	}

	// Dense H membership: every slot visit below becomes an O(1) array read
	// instead of a binary search over h.
	for _, a := range h {
		if a >= 0 && int(a) < len(s.inH) {
			s.inH[a] = true
		}
	}

	// Kernel pass: each shard's visit accumulates comm — derived from the
	// counter and |A_p| alone — into its score array. comm is always
	// integer-valued, so the float64 sums are exact regardless of
	// accumulation or merge order.
	err := s.run(ctx, b.lib, h, workers, func(shard int, touched []core.ImplID, tick *ticker) error {
		scores, actions := ws[shard].scores, ws[shard].actions
		var err error
		for _, p := range touched {
			if err = tick.tick(1); err != nil {
				break
			}
			comm := breadthComm(b.weighting, b.lib.ImplLen(p), len(h), s.cnt[p])
			for _, a := range b.lib.Actions(p) {
				if s.inH[a] {
					continue
				}
				if scores[a] == 0 {
					actions = append(actions, a)
				}
				scores[a] += comm
			}
		}
		ws[shard].actions = actions
		return err
	})

	for _, a := range h {
		if a >= 0 && int(a) < len(s.inH) {
			s.inH[a] = false
		}
	}
	if err != nil {
		// The pooled scratch must go back clean even on an aborted query:
		// every shard may hold partial scores.
		for i := range ws {
			for _, a := range ws[i].actions {
				ws[i].scores[a] = 0
			}
			ws[i].actions = ws[i].actions[:0]
		}
		if workers == 1 {
			s.actions = ws[0].actions
		}
		return nil, err
	}

	if workers == 1 {
		s.actions = ws[0].actions[:0]
		return drainScores(s.scores, ws[0].actions, k), nil
	}

	// Deterministic merge: fold the per-worker partial sums into the main
	// accumulator in fixed worker order. Integer-valued terms keep the fold
	// exact, and selection ranks under a total order, so the result matches
	// the sequential kernel bit for bit.
	merged := s.actions
	for i := range ws {
		for _, a := range ws[i].actions {
			if s.scores[a] == 0 {
				merged = append(merged, a)
			}
			s.scores[a] += ws[i].scores[a]
			ws[i].scores[a] = 0
		}
		ws[i].actions = ws[i].actions[:0]
	}
	s.actions = merged[:0]
	return drainScores(s.scores, merged, k), nil
}

// drainScores ranks the touched actions by their accumulated scores —
// offered straight into a k-bounded selector, so the result owns exactly the
// entries it returns — and re-zeroes the accumulator for the next query.
func drainScores(scores []float64, touched []core.ActionID, k int) []ScoredAction {
	sel := newSelector(k, len(touched))
	for _, a := range touched {
		sel.offer(ScoredAction{Action: a, Score: scores[a]})
		scores[a] = 0
	}
	return sel.sorted()
}

// breadthComm is one implementation's contribution to the score of every
// candidate action it contains — a pure function of (|A_p|, |H|, |A_p ∩ H|)
// shared by the from-scratch kernel and the view path. Every value is
// integer-valued, so float64 sums are exact in any accumulation order.
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

// RecommendView implements ViewRecommender: the accumulation walk over the
// view's materialized counters, scoring exact (no pruned bounds) with
// rankings bit-identical to RecommendContext over the view's activity.
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
	s.actions = s.actions[:0]
	for _, a := range v.h {
		if a >= 0 && int(a) < len(s.inH) {
			s.inH[a] = true
		}
	}
	tick := newTicker(ctx)
	var tickErr error
	actions := s.actions
	for i, p := range v.impls {
		if tickErr = tick.tick(1); tickErr != nil {
			break
		}
		acts := b.lib.Actions(p)
		comm := breadthComm(b.weighting, len(acts), len(v.h), v.cnt[i])
		for _, a := range acts {
			if s.inH[a] {
				continue
			}
			if s.scores[a] == 0 {
				actions = append(actions, a)
			}
			s.scores[a] += comm
		}
	}
	for _, a := range v.h {
		if a >= 0 && int(a) < len(s.inH) {
			s.inH[a] = false
		}
	}
	if tickErr != nil {
		for _, a := range actions {
			s.scores[a] = 0
		}
		s.actions = actions[:0]
		return nil, tickErr
	}
	s.actions = actions[:0]
	return drainScores(s.scores, actions, k), nil
}

// shardWorkers returns the n private per-shard accumulators of the sharded
// path, grown on demand and with their touched lists truncated.
func (s *breadthScratch) shardWorkers(n, numActions int) []breadthWorker {
	for len(s.workers) < n {
		s.workers = append(s.workers, breadthWorker{scores: make([]float64, numActions)})
	}
	for i := 0; i < n; i++ {
		s.workers[i].actions = s.workers[i].actions[:0]
	}
	return s.workers[:n]
}
