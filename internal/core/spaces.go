package core

import (
	"math/bits"

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

// CandidateScratch carries the buffers the candidate collector reuses across
// queries. The zero value is ready to use; a scratch serves one query at a
// time and comes back clean (every bit zero) from every call, so one scratch
// may serve libraries of different sizes in turn.
type CandidateScratch struct {
	bits []uint64 // one bit per action id, all zero between calls
}

// candidateStampLimit is the largest action id space the collector dedups
// with a dense bitset; above it a per-query sweep would dwarf the query. A
// variable only so in-package tests can reach the fallback.
var candidateStampLimit = 1 << 22

// begin returns the zeroed bitset covering numActions ids, or nil when the id
// space is too large to sweep and the collector appends and sorts instead
// (an empty id space also lands there, with nothing to collect).
func (sc *CandidateScratch) begin(numActions int) []uint64 {
	if numActions > candidateStampLimit {
		return nil
	}
	words := (numActions + 63) >> 6
	if len(sc.bits) < words {
		sc.bits = make([]uint64, words)
	}
	return sc.bits[:words]
}

// mark adds the action sets of impls to the pending candidate set: bits of
// the dense set, or raw appends to dst on the fallback path (set == nil).
func (l *Library) mark(dst []ActionID, set []uint64, impls []ImplID) []ActionID {
	if set == nil {
		for _, p := range impls {
			dst = append(dst, l.implActions(p)...)
		}
		return dst
	}
	// The base arrays are held in locals: the stores into set could alias
	// the Library as far as the compiler knows, and would otherwise have it
	// reload every slice header per implementation.
	off, acts, nb := l.implOff, l.implActs, ImplID(len(l.implGoal))
	for _, p := range impls {
		var row []ActionID
		if uint32(p) < uint32(nb) {
			row = acts[off[p]:off[p+1]]
		} else {
			row = l.implActions(p)
		}
		for _, c := range row {
			set[uint32(c)>>6] |= 1 << (uint32(c) & 63)
		}
	}
	return dst
}

// drain appends the marked set minus sortedH to dst[:base] in ascending order
// and leaves set all zero: H's bits are cleared first, then every nonzero
// word gives up its bits lowest first and is zeroed. On the fallback path
// dst[base:] is the raw slot stream, sorted and deduplicated in place.
func drain(dst []ActionID, base int, set []uint64, sortedH []ActionID) []ActionID {
	if set == nil {
		out := intset.FromUnsorted(dst[base:])
		return dst[:base+len(intset.Difference(out[:0], out, sortedH))]
	}
	for _, a := range sortedH {
		if w := int(a) >> 6; a >= 0 && w < len(set) {
			set[w] &^= 1 << (uint32(a) & 63)
		}
	}
	for w, word := range set {
		if word == 0 {
			continue
		}
		set[w] = 0
		for ; word != 0; word &= word - 1 {
			dst = append(dst, ActionID(w<<6+bits.TrailingZeros64(word)))
		}
	}
	return dst
}

// AppendCandidates appends AS(sortedH) − sortedH in ascending order to dst
// and returns the extended slice, allocating nothing once dst and sc have
// grown to the library's shape. sortedH must be sorted and deduplicated.
//
// It walks H's posting rows directly — an implementation shared by c actions
// of H is visited c times, which costs less than materializing and sorting
// IS(H) — marking each action in a bitset and sweeping the set in id order,
// so the output is ascending without a sort and duplicates cost one OR (at
// high connectivity the slot stream is an order of magnitude larger than the
// action space). The append+sort path remains for libraries whose action id
// space is too large to sweep per query.
func (l *Library) AppendCandidates(dst []ActionID, sc *CandidateScratch, sortedH []ActionID) []ActionID {
	base := len(dst)
	set := sc.begin(l.numActions)
	for _, a := range sortedH {
		dst = l.mark(dst, set, l.ImplsOfAction(a))
	}
	return drain(dst, base, set, sortedH)
}

// AppendImplCandidates is AppendCandidates for a caller that already holds
// impls = IS(sortedH): the same collector runs over each implementation
// once, with no posting rows read.
func (l *Library) AppendImplCandidates(dst []ActionID, sc *CandidateScratch, impls []ImplID, sortedH []ActionID) []ActionID {
	base := len(dst)
	set := sc.begin(l.numActions)
	return drain(l.mark(dst, set, impls), base, set, sortedH)
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
