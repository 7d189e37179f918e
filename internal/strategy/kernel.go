package strategy

import (
	"context"

	"goalrec/internal/core"
)

// The Focus and Breadth strategies both reduce to one pass over the
// implementation space IS(H). This file implements the shared counter kernel
// of their optimized scan (see DESIGN.md, "Scoring kernels & batching"):
// accumulate every action's A-GI posting row into a flat per-implementation
// counter array, so that cnt[p] == |A_p ∩ H| for every associated
// implementation with no per-implementation set intersections and no
// materialized, sorted IS(H). A query runs on its caller's goroutine;
// parallelism lives a level up, across requests and cluster workers.

// kernelRowChunk bounds how many posting entries are accumulated between
// context polls, so a cancellation lands mid-row on huge posting lists
// instead of waiting the row out.
const kernelRowChunk = 4096

// overlapScratch is the pooled state of one kernel execution: the flat
// counter array and the first-touch list that both indexes it and drives its
// re-zeroing.
type overlapScratch struct {
	cnt     []int32
	touched []core.ImplID
}

// run executes the counter kernel over IS(h) and invokes visit once, with the
// touched implementations, when the counters are final. h must be sorted and
// deduplicated. The counter array is re-zeroed before run returns — on
// success and on abort alike — so the scratch always goes back to its pool
// clean.
func (s *overlapScratch) run(ctx context.Context, lib *core.Library, h []core.ActionID,
	visit func(touched []core.ImplID, tick *ticker) error) error {

	if n := lib.NumImplementations(); len(s.cnt) < n {
		s.cnt = make([]int32, n)
	}
	tick := newTicker(ctx)
	err := s.accumulate(lib, h, &tick)
	if err == nil {
		err = visit(s.touched, &tick)
	}
	// The pooled counters must go back clean even when the pass aborted
	// mid-accumulation: every increment was recorded in the touched list.
	for _, p := range s.touched {
		s.cnt[p] = 0
	}
	return err
}

// accumulate adds every posting row of h into the counter array, recording
// first-touched implementations in the touched list (including on abort, so
// cleanup stays exact).
func (s *overlapScratch) accumulate(lib *core.Library, h []core.ActionID, tick *ticker) error {
	touched := s.touched[:0]
	var err error
	for _, a := range h {
		row := lib.ImplsOfAction(a)
		for len(row) > 0 {
			n := min(len(row), kernelRowChunk)
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
	s.touched = touched
	return err
}
