package core

import "fmt"

// PartitionRange builds a flat sub-library holding the implementations
// [lo, hi) of l, re-numbered to local ids 0..hi-lo-1. Local ids preserve the
// relative order of the parent ids, so global ordering is recovered by adding
// lo back (cluster workers report lo+local as the global implementation id).
//
// The action and goal id spaces are NOT shrunk: the partition keeps the
// parent's NumActions/NumGoals so that id-based bounds checks, goal-space
// unions and |H|-dependent scores (the Union breadth weighting) behave
// exactly as they do on the full library. Actions and goals that only occur
// outside [lo, hi) simply have empty posting rows.
//
// The partition is built through the public accessors, so it works on any
// library shape — flat, extended (overlay) or mapped — and always
// yields a flat, self-contained library that shares no storage with l. The
// result carries l's epoch so epoch-keyed caches and cluster swap validation
// can tell which lineage snapshot it was cut from.
func PartitionRange(l *Library, lo, hi int) (*Library, error) {
	n := l.NumImplementations()
	if lo < 0 || hi < lo || hi > n {
		return nil, fmt.Errorf("core: partition range [%d, %d) outside library of %d implementations", lo, hi, n)
	}
	slots := 0
	for p := lo; p < hi; p++ {
		slots += l.ImplLen(ImplID(p))
	}
	sub := &Library{
		implGoal:   make([]GoalID, 0, hi-lo),
		implOff:    make([]int32, 1, hi-lo+1),
		implActs:   make([]ActionID, 0, slots),
		numActions: l.numActions,
		numGoals:   l.numGoals,
	}
	for p := lo; p < hi; p++ {
		sub.implGoal = append(sub.implGoal, l.Goal(ImplID(p)))
		sub.implActs = append(sub.implActs, l.Actions(ImplID(p))...)
		sub.implOff = append(sub.implOff, int32(len(sub.implActs)))
	}
	sub.buildIndexes()
	sub.epoch = l.epoch
	return sub, nil
}
