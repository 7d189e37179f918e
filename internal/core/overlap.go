package core

import "sort"

// This file provides the posting-row accumulation primitives behind the
// Focus/Breadth counter kernel (see internal/strategy): one pass over the
// A-GI posting rows of an activity's actions computes |A_p ∩ H| for every
// implementation of IS(H) in a flat counter array, with no per-
// implementation set intersections and no materialized, sorted IS(H).

// OverlapStream returns Σ_{a∈H} |IS(a)|: the exact number of counter
// increments a full overlap accumulation over sortedH performs. Strategies
// use it to decide whether sharding the kernel is worth the goroutine
// overhead before doing any work.
func (l *Library) OverlapStream(sortedH []ActionID) int {
	total := 0
	for _, a := range sortedH {
		total += l.ActionDegree(a)
	}
	return total
}

// AccumulateOverlapRow adds one A-GI posting row (or any slice of one) into
// a flat per-implementation counter array: cnt[p]++ for every p in row,
// appending implementations to touched on first touch. After every row of
// an activity H has been accumulated, cnt[p] == |A_p ∩ H| for each p in the
// returned touched list, which is IS(H) in first-touch order (not sorted).
//
// cnt must be zero over the ids the rows cover; the caller re-zeroes the
// touched entries after use so the array can be pooled across queries.
func AccumulateOverlapRow(row []ImplID, cnt []int32, touched []ImplID) []ImplID {
	for _, p := range row {
		if cnt[p] == 0 {
			touched = append(touched, p)
		}
		cnt[p]++
	}
	return touched
}

// ImplsOfActionRange returns the sub-row of IS(a) whose implementation ids
// lie in [lo, hi), by binary search over the sorted posting row. Sharded
// kernel workers use it to split one shared counter array into disjoint
// implementation-id ranges: every worker accumulates only the postings that
// fall inside its range, so no two workers ever write the same counter. The
// result is a view and must not be modified.
func (l *Library) ImplsOfActionRange(a ActionID, lo, hi ImplID) []ImplID {
	row := l.ImplsOfAction(a)
	i := sort.Search(len(row), func(i int) bool { return row[i] >= lo })
	j := i + sort.Search(len(row)-i, func(j int) bool { return row[i+j] >= hi })
	return row[i:j]
}
