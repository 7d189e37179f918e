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

// TestGoalTallyReuse runs one tally through queries of random goal streams,
// checked against a first-touch list and a map: hints exact, too low, zero
// and far too high, goal ids dense and spread up to 2^31−2, queries of up to
// 6 000 distinct goals (tables past tallyRetain). Every goal of the previous
// query that this one did not add must read −1, and a table past
// tallyRetain must be dropped by the next Reset that needs less.
func TestGoalTallyReuse(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	var tally GoalTally
	var prev []GoalID
	for q := 0; q < 300; q++ {
		distinct := r.Intn(64)
		if q%5 == 0 {
			distinct = r.Intn(6000)
		}
		span := [...]int32{2 * 64, 1 << 20, 1<<31 - 1}[r.Intn(3)]
		pool := make([]GoalID, distinct)
		for i := range pool {
			pool[i] = GoalID(r.Int31n(span))
		}
		hint := [...]int{distinct, distinct / 3, 0, 4 * distinct}[r.Intn(4)]
		tally.Reset(hint)
		size := 16
		for size < 2*hint {
			size <<= 1
		}
		if len(tally.table) > tallyRetain && len(tally.table) != size {
			t.Fatalf("query %d: Reset(%d) kept a table of %d entries", q, hint, len(tally.table))
		}
		var order []GoalID
		want := map[GoalID]int32{}
		for i := 0; i < 3*distinct; i++ {
			g, w := pool[r.Intn(len(pool))], int32(r.Intn(4))
			if _, ok := want[g]; !ok {
				order = append(order, g)
			}
			want[g] += w
			tally.Add(g, w)
		}
		if !slices.Equal(tally.Goals, order) {
			t.Fatalf("query %d: goals %v, want %v", q, tally.Goals, order)
		}
		for i, g := range order {
			if tally.Slot(g) != i || tally.Counts[i] != want[g] {
				t.Fatalf("query %d: goal %d at slot %d/%d counts %d, want %d", q, g, tally.Slot(g), i, tally.Counts[i], want[g])
			}
		}
		if n := len(order); 2*n > len(tally.table) {
			t.Fatalf("query %d: %d goals in a table of %d entries", q, n, len(tally.table))
		}
		for _, g := range prev {
			if _, ok := want[g]; !ok && tally.Slot(g) != -1 {
				t.Fatalf("query %d: goal %d of the previous query is at slot %d", q, g, tally.Slot(g))
			}
		}
		prev = order
	}
}
