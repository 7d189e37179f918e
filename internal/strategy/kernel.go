package strategy

import (
	"context"
	"runtime"
	"sync"

	"goalrec/internal/core"
)

// The Focus and Breadth strategies both reduce to one pass over the
// implementation space IS(H). This file implements the shared machinery of
// their optimized scan (see DESIGN.md, "Scoring kernels & batching"):
//
//   - the counter kernel: accumulate every action's A-GI posting row into a
//     flat per-implementation counter array, so that cnt[p] == |A_p ∩ H| for
//     every associated implementation with no per-implementation set
//     intersections and no materialized, sorted IS(H);
//   - the shard plan: split the implementation-id space into contiguous
//     ranges, one GOMAXPROCS-bounded worker per range. Posting rows are
//     sorted, so each worker binary-searches its sub-rows and owns a
//     disjoint slice of the one shared counter array — a worker's counters
//     are final as soon as its own accumulation ends, and its visit phase
//     starts immediately with no cross-worker barrier.
//
// Every score the two strategies derive from the counters is either a
// ratio of the same integers the sequential path divides or a sum of
// integer-valued float64 terms (exact well below 2^53), and final ordering
// always goes through a total (score, tiebreak) order, so sharded results
// are bit-identical to the sequential kernel for every worker count.

// kernelShardMinStream is the default posting-stream size (total counter
// increments) below which sharding a query is not worth the goroutine
// overhead.
const kernelShardMinStream = 4096

// kernelRowChunk bounds how many posting entries are accumulated between
// context polls, so a cancellation lands mid-row on huge posting lists
// instead of waiting the row out.
const kernelRowChunk = 4096

// concurrency is the shared sharding configuration of the scan strategies.
// The zero value selects the production defaults.
type concurrency struct {
	maxWorkers int // ≤ 0 selects GOMAXPROCS
	shardMin   int // minimum posting stream to shard; ≤ 0 selects default
}

// workersFor resolves the worker count for one query: 1 (sequential) unless
// the posting stream clears the shard threshold and the host has cores to
// spare.
func (c concurrency) workersFor(stream, numImpls int) int {
	shardMin := c.shardMin
	if shardMin <= 0 {
		shardMin = kernelShardMinStream
	}
	workers := c.maxWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if stream < shardMin || workers < 2 {
		return 1
	}
	if workers > numImpls {
		workers = numImpls
	}
	if workers < 2 {
		return 1
	}
	return workers
}

// overlapScratch is the pooled state of one kernel execution: the flat
// counter array and the per-shard first-touch lists that both index it and
// drive its re-zeroing.
type overlapScratch struct {
	cnt     []int32
	touched [][]core.ImplID
}

// shards sizes the counter array for numImpls implementations and returns
// the per-shard touched buffers, grown to n and truncated.
func (s *overlapScratch) shards(n, numImpls int) [][]core.ImplID {
	if len(s.cnt) < numImpls {
		s.cnt = make([]int32, numImpls)
	}
	for len(s.touched) < n {
		s.touched = append(s.touched, nil)
	}
	for i := 0; i < n; i++ {
		s.touched[i] = s.touched[i][:0]
	}
	return s.touched[:n]
}

// run executes the counter kernel over IS(h) with the given worker count and
// invokes visit once per shard, inside the shard's worker, as soon as that
// shard's counters are final. h must be sorted and deduplicated. Shards are
// contiguous implementation-id ranges — scanned inline for one worker,
// otherwise one goroutine each — and the first shard's error (by shard index)
// is returned, making the reported cause deterministic under concurrent
// cancellation. The counter array is re-zeroed before run returns — on
// success and on abort alike — so the scratch always goes back to its pool
// clean.
func (s *overlapScratch) run(ctx context.Context, lib *core.Library, h []core.ActionID,
	workers int, visit func(shard int, touched []core.ImplID, tick *ticker) error) error {

	numImpls := lib.NumImplementations()
	touched := s.shards(workers, numImpls)
	scan := func(shard int, lo, hi core.ImplID) error {
		tick := newTicker(ctx)
		if err := s.accumulate(lib, h, lo, hi, shard, &tick); err != nil {
			return err
		}
		return visit(shard, s.touched[shard], &tick)
	}
	var err error
	if workers == 1 {
		err = scan(0, 0, core.ImplID(numImpls))
	} else {
		chunk := (numImpls + workers - 1) / workers
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := min(w*chunk, numImpls)
			hi := min(lo+chunk, numImpls)
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				errs[w] = scan(w, core.ImplID(lo), core.ImplID(hi))
			}(w)
		}
		wg.Wait()
		for _, e := range errs {
			if e != nil {
				err = e
				break
			}
		}
	}

	// The pooled counters must go back clean even when a shard aborted
	// mid-accumulation: every increment was recorded in some touched list.
	for _, tl := range touched {
		for _, p := range tl {
			s.cnt[p] = 0
		}
	}
	return err
}

// accumulate adds every posting row of h restricted to [lo, hi) into the
// counter array, recording first-touched implementations in shard w's
// touched list (including on abort, so cleanup stays exact).
func (s *overlapScratch) accumulate(lib *core.Library, h []core.ActionID,
	lo, hi core.ImplID, w int, tick *ticker) error {

	touched := s.touched[w]
	var err error
	for _, a := range h {
		row := lib.ImplsOfAction(a)
		if lo != 0 || int(hi) != lib.NumImplementations() {
			row = lib.ImplsOfActionRange(a, lo, hi)
		}
		for len(row) > 0 {
			n := len(row)
			if n > kernelRowChunk {
				n = kernelRowChunk
			}
			if err = tick.tick(n); err != nil {
				break
			}
			touched = core.AccumulateOverlapRow(row[:n], s.cnt, touched)
			row = row[n:]
		}
		if err != nil {
			break
		}
	}
	s.touched[w] = touched
	return err
}
