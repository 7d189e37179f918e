package strategy

import (
	"context"
	"math"
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
//
// A count is |A_p ∩ H| ≤ min(|A_p|, |H|), so one byte per implementation
// holds every count of a query whose bound min(MaxImplLen, |H|) is at most
// 255: a quarter of an int32 array, 250 KB at the bench shape, whose longest
// implementation has 23 actions. A query whose bound is larger counts in
// wide, which only such a query allocates.
type kernelScratch struct {
	cnt     []uint8 // per implementation, all zero between queries
	wide    []int32 // cnt for a query whose bound passes 255
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
	if min(lib.MaxImplLen(), len(h)) <= math.MaxUint8 {
		s.cnt, err = gatherCounts(ctx, s, lib, h, s.cnt)
	} else {
		s.wide, err = gatherCounts(ctx, s, lib, h, s.wide)
	}
	return s.touched, s.counts, err
}

// gatherCounts is gather over one counter type: it grows counters to the
// library at hand, counts into them and returns them all zero again, with
// the touched list and the counts gathered out of them left in s.
func gatherCounts[C uint8 | int32](ctx context.Context, s *kernelScratch, lib *core.Library, h []core.ActionID, counters []C) ([]C, error) {
	if n := lib.NumImplementations(); len(counters) < n {
		// Nothing is written past len, so the grown counters are zero.
		counters = slices.Grow(counters, n-len(counters))[:n]
	}
	err := accumulate(ctx, s, lib, h, counters)
	// The touched list records every increment, an aborted pass's too.
	impls := s.touched
	cnt := slices.Grow(s.counts[:0], len(impls))[:len(impls)]
	for i, p := range impls {
		cnt[i] = int32(counters[p])
		counters[p] = 0
	}
	s.counts = cnt
	return counters, err
}

// accumulate adds every posting row of h — both of its runs — into the
// counter array, counters[p]++ for each posting p, recording first-touched
// implementations in s's touched list (including on abort, so cleanup stays
// exact). After the walk counters[p] == |A_p ∩ H| for each touched p; no
// count may exceed the counter type, so gather picks the type from the
// query's bound. The list is sized before the walk to the most it can hold,
// so it never grows by copying.
func accumulate[C uint8 | int32](ctx context.Context, s *kernelScratch, lib *core.Library, h []core.ActionID, counters []C) error {
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
				for _, p := range row[:n] {
					if counters[p] == 0 {
						touched = append(touched, p)
					}
					counters[p]++
				}
				row = row[n:]
			}
		}
	}
	s.touched = touched
	return err
}
