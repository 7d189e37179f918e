package core

// This file provides the posting-row accumulation primitives behind the
// Focus/Breadth counter kernel (see internal/strategy): one pass over the
// A-GI posting rows of an activity's actions computes |A_p ∩ H| for every
// implementation of IS(H) in a flat counter array, with no per-
// implementation set intersections and no materialized, sorted IS(H).

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
