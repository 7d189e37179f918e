package core

import (
	"slices"

	"goalrec/internal/intset"
)

// This file implements the two basic operations of Section 4 — forming the
// goal space GS(A) and the action space AS(A) of an activity — plus the
// implementation space IS(A) both rely on, and the per-implementation
// completeness and closeness measures of Section 5.1.

// ImplementationSpace returns the sorted, deduplicated ids of every
// implementation containing at least one action of activity: IS(activity).
// The activity need not be sorted.
func (l *Library) ImplementationSpace(activity []ActionID) []ImplID {
	switch len(activity) {
	case 0:
		return nil
	case 1:
		return intset.Clone(l.ImplsOfAction(activity[0]))
	}
	total := 0
	for _, a := range activity {
		total += l.ActionDegree(a)
	}
	if total == 0 {
		return nil
	}
	out := make([]ImplID, 0, total)
	for _, a := range activity {
		out = append(out, l.ImplsOfAction(a)...)
	}
	return intset.FromUnsorted(out)
}

// GoalSpace returns the sorted, deduplicated goal ids associated with the
// activity through at least one implementation: GS(activity)
// (Definition 4.1 extended to activities). It unions the per-action AG-idx
// rows directly, skipping the IS(activity) materialization entirely.
func (l *Library) GoalSpace(activity []ActionID) []GoalID {
	switch len(activity) {
	case 0:
		return nil
	case 1:
		goals, _ := l.GoalsOfAction(activity[0])
		if len(goals) == 0 {
			return nil
		}
		return append([]GoalID(nil), goals...)
	}
	total := 0
	for _, a := range activity {
		total += l.GoalDegree(a)
	}
	if total == 0 {
		return nil
	}
	out := make([]GoalID, 0, total)
	for _, a := range activity {
		goals, _ := l.GoalsOfAction(a)
		out = append(out, goals...)
	}
	return intset.FromUnsorted(out)
}

// ActionSpace returns the sorted, deduplicated actions that co-participate
// with the activity's actions in some implementation: AS(activity)
// (Definition 4.2 extended to activities). Following the definition, an
// action of the activity itself appears in the result only when it co-occurs
// with a *different* action of the activity; use Candidates to strip the
// activity entirely.
func (l *Library) ActionSpace(activity []ActionID) []ActionID {
	h := intset.FromUnsorted(intset.Clone(activity))
	var out []ActionID
	for _, p := range l.ImplementationSpace(h) {
		acts := l.implActions(p)
		overlap := intset.IntersectionLen(acts, h)
		for _, a := range acts {
			if intset.Contains(h, a) {
				// An activity action belongs to AS(H) only when it
				// co-participates with a *different* activity action
				// (Definition 4.2 excludes the pairing of a with itself).
				if overlap >= 2 {
					out = append(out, a)
				}
				continue
			}
			out = append(out, a)
		}
	}
	return intset.FromUnsorted(out)
}

// Candidates returns AS(activity) − activity: the candidate actions the
// strategies rank (the user has not performed them yet).
func (l *Library) Candidates(activity []ActionID) []ActionID {
	h := intset.FromUnsorted(intset.Clone(activity))
	return l.AppendCandidates(nil, &CandidateScratch{}, h)
}

// CandidateScratch carries the buffers AppendCandidates reuses across
// queries. The zero value is ready to use; a scratch serves one query at a
// time and comes back clean from every call.
type CandidateScratch struct {
	seen []bool   // dense first-sight stamps, all false between calls
	row  []ImplID // posting decode buffer for block-compressed rows
}

// candidateStampLimit is the largest action id space AppendCandidates dedups
// with dense stamps; above it a per-query stamp array would dwarf the query.
const candidateStampLimit = 1 << 22

// AppendCandidates appends AS(sortedH) − sortedH in ascending order to dst
// and returns the extended slice, allocating nothing once dst and sc have
// grown to the library's shape. sortedH must be sorted and deduplicated.
//
// It walks H's posting rows directly — an implementation shared by c actions
// of H is visited c times, which costs less than materializing and sorting
// IS(H) — stamping each action on first sight and sorting the distinct
// survivors, instead of sorting the full slot stream with duplicates (at
// high connectivity the stream is an order of magnitude larger than the
// action space). H itself is stamped up front and so never collected. The
// append+sort path remains for libraries whose action id space is too large
// to stamp.
func (l *Library) AppendCandidates(dst []ActionID, sc *CandidateScratch, sortedH []ActionID) []ActionID {
	base := len(dst)
	if l.numActions > candidateStampLimit {
		for _, a := range sortedH {
			var row []ImplID
			row, sc.row = l.PostingRow(a, sc.row)
			for _, p := range row {
				dst = append(dst, l.implActions(p)...)
			}
		}
		out := intset.FromUnsorted(dst[base:])
		return dst[:base+len(intset.Difference(out[:0], out, sortedH))]
	}
	if len(sc.seen) < l.numActions {
		sc.seen = make([]bool, l.numActions)
	}
	seen := sc.seen
	for _, a := range sortedH {
		if a >= 0 && int(a) < len(seen) {
			seen[a] = true
		}
	}
	for _, a := range sortedH {
		var row []ImplID
		row, sc.row = l.PostingRow(a, sc.row)
		for _, p := range row {
			for _, c := range l.implActions(p) {
				if !seen[c] {
					seen[c] = true
					dst = append(dst, c)
				}
			}
		}
	}
	for _, a := range sortedH {
		if a >= 0 && int(a) < len(seen) {
			seen[a] = false
		}
	}
	for _, c := range dst[base:] {
		seen[c] = false
	}
	slices.Sort(dst[base:])
	return dst
}

// Completeness returns completeness(g, A_p, H) = |A_p ∩ H| / |A_p|
// (Equation 3): the fraction of implementation p's actions already performed.
// H must be sorted.
func (l *Library) Completeness(p ImplID, sortedH []ActionID) float64 {
	acts := l.implActions(p)
	return float64(intset.IntersectionLen(acts, sortedH)) / float64(len(acts))
}

// Closeness returns closeness(g, A_p, H) = 1 / |A_p − H| (Equation 4): the
// inverse of the number of actions still missing. A fully covered
// implementation has infinite closeness; this function returns +Inf-free
// semantics by mapping it to |A_p|+1 (strictly larger than any partial
// closeness), keeping sort keys finite. H must be sorted.
func (l *Library) Closeness(p ImplID, sortedH []ActionID) float64 {
	missing := intset.DifferenceLen(l.implActions(p), sortedH)
	if missing == 0 {
		return float64(l.ImplLen(p) + 1)
	}
	return 1 / float64(missing)
}

// CompletenessWith returns the completeness of implementation p after the
// user additionally performs extra (both slices sorted): the usefulness
// measure of Section 6.1 C.1.3.
func (l *Library) CompletenessWith(p ImplID, sortedH, sortedExtra []ActionID) float64 {
	acts := l.implActions(p)
	n := intset.IntersectionLen(acts, sortedH)
	// Count extra's contribution only where it is not already in H.
	for _, a := range sortedExtra {
		if intset.Contains(acts, a) && !intset.Contains(sortedH, a) {
			n++
		}
	}
	return float64(n) / float64(len(acts))
}

// GoalCompleteness returns the best completeness across the implementations
// of goal g with respect to union of sortedH and sortedExtra: a goal counts
// as advanced by its closest implementation.
func (l *Library) GoalCompleteness(g GoalID, sortedH, sortedExtra []ActionID) float64 {
	best := 0.0
	for _, p := range l.ImplsOfGoal(g) {
		if c := l.CompletenessWith(p, sortedH, sortedExtra); c > best {
			best = c
		}
	}
	return best
}
