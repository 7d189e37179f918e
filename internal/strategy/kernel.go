package strategy

import (
	"context"
	"slices"
	"sync"

	"goalrec/internal/core"
)

// The Focus and Breadth strategies both reduce to one pass over the
// implementation space IS(H). This file implements the shared counter kernel
// of their optimized scan (see DESIGN.md, "Scoring kernels & batching"):
// accumulate every action's A-GI posting row into a flat per-implementation
// counter array, so that cnt[p] == |A_p ∩ H| for every associated
// implementation with no per-implementation set intersections and no
// materialized, sorted IS(H). The kernel hands its result over as parallel
// (impls, cnt) arrays, the layout each strategy's one driver scores. A query
// runs on its caller's goroutine; parallelism lives a level up, across
// requests and cluster workers.

// kernelRowChunk bounds how many posting entries are accumulated between
// context polls, so a cancellation lands mid-row on huge posting lists
// instead of waiting the row out.
const kernelRowChunk = 4096

// kernelScratch is the pooled state of one kernel execution: the flat
// counter array, the first-touch list that both indexes it and drives its
// re-zeroing, and the counts gathered out of it, aligned with the list.
type kernelScratch struct {
	cnt     []int32
	touched []core.ImplID
	counts  []int32
}

// kernelScratchPool serves every Focus and Breadth query — every measure,
// weighting, library, epoch and shard — so a process holds one counter
// array per concurrent query, not one per instance. The counters grow to
// the library at hand in gather, in place, so the few implementations an
// ingest adds do not reallocate them.
var kernelScratchPool = sync.Pool{New: func() any { return new(kernelScratch) }}

// gather runs the counter kernel over IS(h) and returns it as parallel
// arrays: impls the touched implementations (first-touch order, not id
// order) and cnt[i] = |A_impls[i] ∩ H|. h must be sorted and
// deduplicated. One walk of the touched list copies each counter out and
// clears it, so the counter array is all zero when gather returns — on
// success and on abort alike. Both slices alias s until its next use; after
// an abort (err != nil) they hold partial counts.
func (s *kernelScratch) gather(ctx context.Context, lib *core.Library, h []core.ActionID) (impls []core.ImplID, cnt []int32, err error) {
	if n := lib.NumImplementations(); len(s.cnt) < n {
		// Nothing is written past len, so the grown counters are zero.
		s.cnt = slices.Grow(s.cnt, n-len(s.cnt))[:n]
	}
	err = s.accumulate(ctx, lib, h)
	// The touched list records every increment, an aborted pass's too.
	impls, counters := s.touched, s.cnt
	cnt = slices.Grow(s.counts[:0], len(impls))[:len(impls)]
	for i, p := range impls {
		cnt[i] = counters[p]
		counters[p] = 0
	}
	s.counts = cnt
	return impls, cnt, err
}

// accumulate adds every posting row of h — both of its runs — into the
// counter array, recording first-touched implementations in the touched list
// (including on abort, so cleanup stays exact). The list is sized before the
// walk to the most it can hold, so it never grows by copying.
func (s *kernelScratch) accumulate(ctx context.Context, lib *core.Library, h []core.ActionID) error {
	most := 0
	for _, a := range h {
		most += lib.ActionDegree(a)
	}
	touched := slices.Grow(s.touched[:0], min(most, lib.NumImplementations()))
	tick := newTicker(ctx)
	var err error
scan:
	for _, a := range h {
		base, tail := lib.ActionRows(a)
		for _, row := range [...][]core.ImplID{base, tail} {
			for len(row) > 0 {
				n := min(len(row), kernelRowChunk)
				if err = tick.tick(n); err != nil {
					break scan
				}
				touched = core.AccumulateOverlapRow(row[:n], s.cnt, touched)
				row = row[n:]
			}
		}
	}
	s.touched = touched
	return err
}
