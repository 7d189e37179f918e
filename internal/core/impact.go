package core

import "sort"

// Impact-ordered id remapping (the build-time layout pass behind the
// WithImpactOrdering option): action ids are reassigned frequency-descending
// and implementation ids are re-clustered so that block-max metadata gets
// sharp and posting scans touch cache-friendly runs.
//
//   - Actions: degree (|IS(a)|) descending, ties by old id, so hot posting
//     rows get the smallest ids. (The Breadth candidate walk this was laid
//     out for never skipped a candidate and is gone — DESIGN.md, "Bounds &
//     pruning"; the relabeling stays part of the layout.)
//   - Implementations: |A_p| ascending, then by goal, then old id. Length
//     clustering makes the per-block min/max |A_p| nearly tight — exactly
//     the terms the Focus bounds divide by — and turns a score floor into a
//     global id cutoff; the goal tiebreak clusters co-occurring
//     implementations (one goal's implementations share actions) into a few
//     contiguous runs per goal, keeping goal-major walks cache-local.
//
// The remap is a pure relabeling: every score is preserved once ids are
// translated, so callers that map ids back to names (goalrec rebuilds its
// vocabulary against the permutation) observe the same recommendation set
// with the same scores. Only the order *within* an exactly-tied score layer
// can differ, because the id tiebreak now runs on the remapped ids.

// ImpactPermutation records the action relabeling an ImpactOrder applied.
// Goal ids are never remapped.
type ImpactPermutation struct {
	// ActionOld[n] is the old id of the action now numbered n.
	ActionOld []ActionID
	// ActionNew[o] is the new id of the action previously numbered o.
	ActionNew []ActionID
}

// ImpactOrder returns an impact-ordered copy of l together with the action
// permutation it applied. The copy carries the same epoch and goal ids; the
// implementation count, degrees and all set relations are preserved under
// the permutation.
func ImpactOrder(l *Library) (*Library, ImpactPermutation) {
	nAct := l.numActions
	nImpl := l.NumImplementations()

	perm := ImpactPermutation{
		ActionOld: make([]ActionID, nAct),
		ActionNew: make([]ActionID, nAct),
	}
	for i := range perm.ActionOld {
		perm.ActionOld[i] = ActionID(i)
	}
	sort.Slice(perm.ActionOld, func(i, j int) bool {
		a, b := perm.ActionOld[i], perm.ActionOld[j]
		da, db := l.ActionDegree(a), l.ActionDegree(b)
		if da != db {
			return da > db
		}
		return a < b
	})
	for n, o := range perm.ActionOld {
		perm.ActionNew[o] = ActionID(n)
	}

	// Implementation order: length ascending, then goal, then old id.
	// Global length order is what turns a Focus score floor into an id
	// cutoff; the goal tiebreak keeps each goal's implementations in a
	// handful of contiguous runs (one per length class), so goal-major
	// scans — which walk G-GI rows and dereference every implementation —
	// stay cache-local instead of scattering across the whole id space.
	// Implementations of one goal share actions by construction, so this is
	// also the co-occurrence clustering that packs posting-row neighbors
	// next to each other.
	order := make([]ImplID, nImpl)
	for p := 0; p < nImpl; p++ {
		order[p] = ImplID(p)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		la, lb := l.ImplLen(a), l.ImplLen(b)
		if la != lb {
			return la < lb
		}
		if l.Goal(a) != l.Goal(b) {
			return l.Goal(a) < l.Goal(b)
		}
		return a < b
	})

	out := &Library{
		implGoal:   make([]GoalID, nImpl),
		implOff:    make([]int32, 1, nImpl+1),
		implActs:   make([]ActionID, 0, l.NumPostings()),
		numActions: nAct,
		numGoals:   l.numGoals,
		epoch:      l.epoch,
	}
	for i, p := range order {
		out.implGoal[i] = l.Goal(p)
		start := len(out.implActs)
		for _, a := range l.implActions(p) {
			out.implActs = append(out.implActs, perm.ActionNew[a])
		}
		row := out.implActs[start:]
		sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
		out.implOff = append(out.implOff, int32(len(out.implActs)))
	}
	out.buildIndexes()
	return out, perm
}
