package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"goalrec/internal/intset"
)

// gaRowReference derives the GA-idx row of goal g the slow way, from the
// G-GI postings: distinct actions ascending, with multiplicities.
func gaRowReference(lib *Library, g GoalID) ([]ActionID, []int32) {
	counts := map[ActionID]int32{}
	for _, p := range lib.ImplsOfGoal(g) {
		for _, a := range lib.Actions(p) {
			counts[a]++
		}
	}
	var acts []ActionID
	for a := range counts {
		acts = append(acts, a)
	}
	acts = intset.FromUnsorted(acts)
	cnt := make([]int32, len(acts))
	for i, a := range acts {
		cnt[i] = counts[a]
	}
	return acts, cnt
}

// TestGAIndexMatchesPostingsProperty: the GA-idx, built from the A-GI
// postings, equals the (action, goal) incidence counts of the G-GI postings
// and of the A-GI postings; every slot is covered by exactly one goal's walk
// cost.
func TestGAIndexMatchesPostingsProperty(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 60,
		Values: func(v []reflect.Value, r *rand.Rand) {
			v[0] = reflect.ValueOf(randomLibrary(r, 1+r.Intn(80), 25, 12))
		},
	}
	f := func(lib *Library) bool {
		slotTotal := 0
		for g := GoalID(0); int(g) < lib.NumGoals(); g++ {
			acts, cnt := lib.ActionsOfGoal(g)
			wantActs, wantCnt := gaRowReference(lib, g)
			if !slices.Equal(acts, wantActs) || !slices.Equal(cnt, wantCnt) ||
				lib.GoalActionCount(g) != len(wantActs) {
				return false
			}
			for i, a := range acts {
				n := int32(0)
				for _, p := range lib.ImplsOfAction(a) {
					if lib.Goal(p) == g {
						n++
					}
				}
				if n != cnt[i] {
					return false
				}
			}
			walk := 0
			for _, p := range lib.ImplsOfGoal(g) {
				walk += lib.ImplLen(p)
			}
			slotTotal += walk
		}
		// A goal outside the library has an empty row.
		if acts, cnt := lib.ActionsOfGoal(GoalID(lib.NumGoals())); acts != nil || cnt != nil {
			return false
		}
		// Every slot is covered by exactly one goal's walk.
		implTotal := 0
		for p := 0; p < lib.NumImplementations(); p++ {
			implTotal += lib.ImplLen(ImplID(p))
		}
		return slotTotal == implTotal
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestGoalSpaceMatchesImplementationSpaceDerivation(t *testing.T) {
	// GoalSpace collects the goals of H's postings without materializing
	// IS(H); it must equal the definition: the distinct goals of IS(H).
	cfg := &quick.Config{
		MaxCount: 60,
		Values: func(v []reflect.Value, r *rand.Rand) {
			v[0] = reflect.ValueOf(randomLibrary(r, 1+r.Intn(80), 25, 12))
			h := make([]ActionID, 1+r.Intn(6))
			for i := range h {
				h[i] = ActionID(r.Intn(30)) // may exceed the action space
			}
			v[1] = reflect.ValueOf(h)
		},
	}
	f := func(lib *Library, h []ActionID) bool {
		var want []GoalID
		for _, p := range lib.ImplementationSpace(h) {
			want = append(want, lib.Goal(p))
		}
		want = intset.FromUnsorted(want)
		return reflect.DeepEqual(lib.GoalSpace(h), want)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestSpacesEmptyAndUnknownActivities(t *testing.T) {
	lib := paperLibrary(t)
	unknown := []ActionID{999, 1234}

	for name, h := range map[string][]ActionID{
		"empty":    nil,
		"unknown":  unknown,
		"negative": {-3},
	} {
		if got := lib.ImplementationSpace(h); got != nil {
			t.Errorf("%s: ImplementationSpace = %v, want nil", name, got)
		}
		if got := lib.GoalSpace(h); got != nil {
			t.Errorf("%s: GoalSpace = %v, want nil", name, got)
		}
		if got := lib.Candidates(h); got != nil {
			t.Errorf("%s: Candidates = %v, want nil", name, got)
		}
	}

	// Unknown ids mixed into a real activity are inert: the spaces match the
	// known-only activity exactly.
	known := []ActionID{1, 2}
	mixed := append(append([]ActionID(nil), unknown...), known...)
	if got, want := lib.GoalSpace(mixed), lib.GoalSpace(known); !reflect.DeepEqual(got, want) {
		t.Errorf("mixed GoalSpace = %v, want %v", got, want)
	}
	if got, want := lib.ImplementationSpace(mixed), lib.ImplementationSpace(known); !reflect.DeepEqual(got, want) {
		t.Errorf("mixed ImplementationSpace = %v, want %v", got, want)
	}
	// Candidates strips the activity itself — including its unknown ids.
	if got, want := lib.Candidates(mixed), lib.Candidates(known); !reflect.DeepEqual(got, want) {
		t.Errorf("mixed Candidates = %v, want %v", got, want)
	}

	// Out-of-range accessors answer empty, not panic.
	if got := lib.ImplsOfAction(999); got != nil {
		t.Errorf("ImplsOfAction(999) = %v, want nil", got)
	}
}
