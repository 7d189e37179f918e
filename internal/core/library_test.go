package core

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"goalrec/internal/intset"
)

func TestBuilderAddValidation(t *testing.T) {
	var b Builder
	if _, err := b.Add(0, nil); !errors.Is(err, ErrEmptyActivity) {
		t.Errorf("Add with empty activity: err = %v, want ErrEmptyActivity", err)
	}
	if _, err := b.Add(-1, actions(1)); !errors.Is(err, ErrNegativeID) {
		t.Errorf("Add with negative goal: err = %v, want ErrNegativeID", err)
	}
	if _, err := b.Add(0, actions(-2)); !errors.Is(err, ErrNegativeID) {
		t.Errorf("Add with negative action: err = %v, want ErrNegativeID", err)
	}
	if b.Len() != 0 {
		t.Errorf("failed Adds changed Len to %d", b.Len())
	}
}

// TestAppendRowSlotBound: the row normaliser behind Builder.Add and the
// DynamicLibrary's appends refuses a row that would take the CSR past the
// int32 offsets instead of letting an offset wrap, and counts the row after
// its duplicates are dropped.
func TestAppendRowSlotBound(t *testing.T) {
	prefix := []ActionID{7, 9}
	acts, err := appendRow(prefix, math.MaxInt32-3, 1, []ActionID{5, 3, 5, 4})
	if err != nil || !reflect.DeepEqual(acts, []ActionID{7, 9, 3, 4, 5}) {
		t.Fatalf("row filling the offset space exactly: %v, %v", acts, err)
	}
	acts, err = appendRow(prefix, math.MaxInt32-2, 1, []ActionID{1, 2, 3})
	if err == nil || !strings.Contains(err.Error(), "exceeds the 32-bit offset space") {
		t.Fatalf("row one slot past the offset space: error %v", err)
	}
	if !reflect.DeepEqual(acts, []ActionID{7, 9}) {
		t.Fatalf("refused row changed the CSR: %v", acts)
	}
}

func TestBuilderNormalizesActions(t *testing.T) {
	var b Builder
	id, err := b.Add(3, actions(5, 1, 5, 3))
	if err != nil {
		t.Fatal(err)
	}
	lib := b.Build()
	if got := lib.Actions(id); !equalActions(got, actions(1, 3, 5)) {
		t.Errorf("Actions = %v, want [1 3 5]", got)
	}
	if lib.Goal(id) != 3 {
		t.Errorf("Goal = %d, want 3", lib.Goal(id))
	}
}

func TestBuilderDoesNotAliasInput(t *testing.T) {
	var b Builder
	in := actions(2, 1)
	if _, err := b.Add(0, in); err != nil {
		t.Fatal(err)
	}
	in[0], in[1] = 9, 9
	lib := b.Build()
	if got := lib.Actions(0); !equalActions(got, actions(1, 2)) {
		t.Errorf("builder aliased caller slice: Actions = %v", got)
	}
}

// Build hands out views of the Builder's arrays, not copies: Adds after a
// Build — with spare capacity and across reallocations — must leave the
// built library equal to a fresh build of its own prefix.
func TestBuildThenAddLeavesLibraryUntouched(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	type impl struct {
		goal GoalID
		acts []ActionID
	}
	impls := make([]impl, 1500)
	for i := range impls {
		acts := make([]ActionID, 1+r.Intn(6))
		for j := range acts {
			acts[j] = ActionID(r.Intn(40))
		}
		impls[i] = impl{GoalID(r.Intn(25)), acts}
	}
	add := func(b *Builder, from, to int) {
		for _, im := range impls[from:to] {
			if _, err := b.Add(im.goal, im.acts); err != nil {
				t.Fatal(err)
			}
		}
	}
	const prefix = 500
	b := NewBuilder(prefix+10, 8) // the first later Adds land in spare capacity
	add(b, 0, prefix)
	first := b.Build()
	add(b, prefix, len(impls))
	second := b.Build()

	var fresh Builder
	add(&fresh, 0, prefix)
	assertLibrariesEqual(t, fresh.Build(), first)
	add(&fresh, prefix, len(impls))
	assertLibrariesEqual(t, fresh.Build(), second)
}

func TestEmptyLibrary(t *testing.T) {
	lib := new(Builder).Build()
	if lib.NumImplementations() != 0 || lib.NumActions() != 0 || lib.NumGoals() != 0 {
		t.Errorf("empty library has non-zero dimensions: %+v", lib.Stats())
	}
	if got := lib.ImplementationSpace(actions(1, 2)); got != nil {
		t.Errorf("IS on empty library = %v, want nil", got)
	}
	if got := lib.ImplsOfAction(0); got != nil {
		t.Errorf("ImplsOfAction on empty library = %v", got)
	}
	if got := lib.ImplsOfGoal(0); got != nil {
		t.Errorf("ImplsOfGoal on empty library = %v", got)
	}
}

func TestPaperExampleIndexes(t *testing.T) {
	lib := paperLibrary(t)

	if lib.NumImplementations() != 5 {
		t.Fatalf("NumImplementations = %d, want 5", lib.NumImplementations())
	}
	if lib.NumActions() != 6 {
		t.Errorf("NumActions = %d, want 6", lib.NumActions())
	}
	if lib.NumGoals() != 5 {
		t.Errorf("NumGoals = %d, want 5", lib.NumGoals())
	}

	// Example 4.3: IS(a1) = {p1, p2, p3, p5}.
	if got := lib.ImplsOfAction(0); !equalImpls(got, impls(0, 1, 2, 4)) {
		t.Errorf("IS(a1) = %v, want [0 1 2 4]", got)
	}
	// GS(a1) = {g1, g2, g3, g5}.
	if got := lib.GoalSpace(actions(0)); !equalGoals(got, goals(0, 1, 2, 4)) {
		t.Errorf("GS(a1) = %v, want [0 1 2 4]", got)
	}
	// AS(a1) = {a2, a3, a4, a5, a6}.
	if got := lib.ActionSpace(actions(0)); !equalActions(got, actions(1, 2, 3, 4, 5)) {
		t.Errorf("AS(a1) = %v, want [1 2 3 4 5]", got)
	}

	// Each goal fulfilled by exactly one implementation here.
	for g := GoalID(0); g < 5; g++ {
		if got := lib.ImplsOfGoal(g); len(got) != 1 {
			t.Errorf("ImplsOfGoal(%d) = %v, want exactly one", g, got)
		}
	}
	if lib.ActionDegree(0) != 4 {
		t.Errorf("ActionDegree(a1) = %d, want 4", lib.ActionDegree(0))
	}
}

func TestActionSpaceSelfExclusion(t *testing.T) {
	var b Builder
	// a0 appears only alone; a1 and a2 co-occur.
	mustAdd(t, &b, 0, actions(0))
	mustAdd(t, &b, 1, actions(1, 2))
	lib := b.Build()

	if got := lib.ActionSpace(actions(0)); len(got) != 0 {
		t.Errorf("AS of an action with only singleton impls = %v, want empty", got)
	}
	// For H = {a1, a2} both belong to AS(H): each co-occurs with the other.
	if got := lib.ActionSpace(actions(1, 2)); !equalActions(got, actions(1, 2)) {
		t.Errorf("AS({a1,a2}) = %v, want [1 2]", got)
	}
	// Candidates strips the activity itself.
	if got := lib.Candidates(actions(1, 2)); len(got) != 0 {
		t.Errorf("Candidates({a1,a2}) = %v, want empty", got)
	}
	if got := lib.Candidates(actions(1)); !equalActions(got, actions(2)) {
		t.Errorf("Candidates({a1}) = %v, want [2]", got)
	}
}

func TestImplementationSpaceDeduplicates(t *testing.T) {
	lib := paperLibrary(t)
	// a1 and a2 share p1 and p5; the space must contain each impl once.
	got := lib.ImplementationSpace(actions(0, 1))
	if !equalImpls(got, impls(0, 1, 2, 4)) {
		t.Errorf("IS({a1,a2}) = %v, want [0 1 2 4]", got)
	}
	// Unsorted input is accepted.
	if got2 := lib.ImplementationSpace(actions(1, 0)); !equalImpls(got2, got) {
		t.Errorf("IS unsorted = %v, want %v", got2, got)
	}
}

func TestOutOfRangeLookups(t *testing.T) {
	lib := paperLibrary(t)
	if got := lib.ImplsOfAction(99); got != nil {
		t.Errorf("ImplsOfAction(99) = %v, want nil", got)
	}
	if got := lib.ImplsOfAction(-1); got != nil {
		t.Errorf("ImplsOfAction(-1) = %v, want nil", got)
	}
	if got := lib.ImplsOfGoal(99); got != nil {
		t.Errorf("ImplsOfGoal(99) = %v, want nil", got)
	}
}

func TestCompletenessAndCloseness(t *testing.T) {
	lib := paperLibrary(t)
	h := actions(0, 1) // a1, a2

	// p1 = {a1,a2,a3}: 2 of 3 done, 1 missing.
	if got := lib.Completeness(0, h); got != 2.0/3.0 {
		t.Errorf("completeness(p1) = %v, want 2/3", got)
	}
	if got := lib.Closeness(0, h); got != 1.0 {
		t.Errorf("closeness(p1) = %v, want 1", got)
	}
	// p2 = {a1,a4}: 1 of 2 done.
	if got := lib.Completeness(1, h); got != 0.5 {
		t.Errorf("completeness(p2) = %v, want 0.5", got)
	}
	// p4 = {a4,a6}: nothing done, 2 missing.
	if got := lib.Completeness(3, h); got != 0 {
		t.Errorf("completeness(p4) = %v, want 0", got)
	}
	if got := lib.Closeness(3, h); got != 0.5 {
		t.Errorf("closeness(p4) = %v, want 0.5", got)
	}
	// A fully covered implementation has closeness above any partial value.
	full := actions(0, 1, 2)
	if got := lib.Closeness(0, full); got <= float64(lib.ImplLen(0)) {
		t.Errorf("closeness of complete impl = %v, want > |A|", got)
	}
}

func TestCompletenessWith(t *testing.T) {
	lib := paperLibrary(t)
	h := actions(0) // a1
	// p1 = {a1,a2,a3}; recommending a2 raises completeness from 1/3 to 2/3.
	if got := lib.CompletenessWith(0, h, actions(1)); got != 2.0/3.0 {
		t.Errorf("CompletenessWith = %v, want 2/3", got)
	}
	// Extra actions already in H must not be double counted.
	if got := lib.CompletenessWith(0, h, actions(0)); got != 1.0/3.0 {
		t.Errorf("CompletenessWith double-counted: %v, want 1/3", got)
	}
	// Irrelevant extras change nothing.
	if got := lib.CompletenessWith(0, h, actions(5)); got != 1.0/3.0 {
		t.Errorf("CompletenessWith with irrelevant extra = %v, want 1/3", got)
	}
}

func TestGoalCompleteness(t *testing.T) {
	var b Builder
	// Goal 0 has two implementations; the best one counts.
	mustAdd(t, &b, 0, actions(0, 1))       // 1/2 with H={a0}
	mustAdd(t, &b, 0, actions(0, 2, 3, 4)) // 1/4 with H={a0}
	lib := b.Build()
	if got := lib.GoalCompleteness(0, actions(0), nil); got != 0.5 {
		t.Errorf("GoalCompleteness = %v, want 0.5 (best implementation)", got)
	}
	if got := lib.GoalCompleteness(0, actions(0), actions(1)); got != 1 {
		t.Errorf("GoalCompleteness with extra = %v, want 1", got)
	}
	if got := lib.GoalCompleteness(99, actions(0), nil); got != 0 {
		t.Errorf("GoalCompleteness of unknown goal = %v, want 0", got)
	}
}

func TestStats(t *testing.T) {
	lib := paperLibrary(t)
	s := lib.Stats()
	if s.Implementations != 5 || s.Actions != 6 || s.Goals != 5 {
		t.Errorf("Stats = %+v", s)
	}
	if s.TotalSlots != 13 {
		t.Errorf("TotalSlots = %d, want 13", s.TotalSlots)
	}
	if s.AvgImplLen != 13.0/5.0 {
		t.Errorf("AvgImplLen = %v, want 2.6", s.AvgImplLen)
	}
	if s.Connectivity != 13.0/6.0 {
		t.Errorf("Connectivity = %v, want 13/6", s.Connectivity)
	}
	if s.MaxConnectivity != 4 {
		t.Errorf("MaxConnectivity = %v, want 4 (a1)", s.MaxConnectivity)
	}
	if s.String() == "" {
		t.Error("Stats.String is empty")
	}
}

func TestLibraryFrequency(t *testing.T) {
	lib := paperLibrary(t)
	freq := lib.LibraryFrequency()
	if len(freq) != 6 {
		t.Fatalf("LibraryFrequency length = %d, want 6", len(freq))
	}
	if freq[0] != 4.0/5.0 {
		t.Errorf("freq(a1) = %v, want 0.8", freq[0])
	}
	if freq[4] != 1.0/5.0 {
		t.Errorf("freq(a5) = %v, want 0.2", freq[4])
	}
}

func TestConnectivityPercentile(t *testing.T) {
	lib := paperLibrary(t)
	// Degrees: a1=4, a2=2, a3=2, a4=2, a5=1, a6=2 → sorted 1,2,2,2,2,4.
	if got := lib.ConnectivityPercentile(0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if got := lib.ConnectivityPercentile(100); got != 4 {
		t.Errorf("p100 = %v, want 4", got)
	}
	if got := lib.ConnectivityPercentile(50); got != 2 {
		t.Errorf("p50 = %v, want 2", got)
	}
	if got := new(Builder).Build().ConnectivityPercentile(50); got != 0 {
		t.Errorf("percentile of empty library = %v, want 0", got)
	}
}

func mustAdd(t testing.TB, b *Builder, g GoalID, a []ActionID) ImplID {
	t.Helper()
	id, err := b.Add(g, a)
	if err != nil {
		t.Fatalf("Add(%d, %v): %v", g, a, err)
	}
	return id
}

// randomLibrary builds a library with n implementations over actionSpace
// actions and goalSpace goals for property tests.
func randomLibrary(r *rand.Rand, n, actionSpace, goalSpace int) *Library {
	b := NewBuilder(n, 4)
	for i := 0; i < n; i++ {
		size := 1 + r.Intn(6)
		acts := make([]ActionID, size)
		for j := range acts {
			acts[j] = ActionID(r.Intn(actionSpace))
		}
		if _, err := b.Add(GoalID(r.Intn(goalSpace)), acts); err != nil {
			panic(err)
		}
	}
	return b.Build()
}

func TestIndexConsistencyProperty(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 60,
		Values: func(v []reflect.Value, r *rand.Rand) {
			v[0] = reflect.ValueOf(randomLibrary(r, 1+r.Intn(60), 20, 10))
		},
	}
	// Every posting in A-GI-idx corresponds to an implementation that
	// actually contains the action, and vice versa; same for G-GI-idx.
	f := func(lib *Library) bool {
		for a := ActionID(0); int(a) < lib.NumActions(); a++ {
			posts := lib.ImplsOfAction(a)
			if !intset.IsSorted(posts) {
				return false
			}
			for _, p := range posts {
				if !intset.Contains(lib.Actions(p), a) {
					return false
				}
			}
		}
		total := 0
		for p := 0; p < lib.NumImplementations(); p++ {
			acts := lib.Actions(ImplID(p))
			if !intset.IsSorted(acts) {
				return false
			}
			total += len(acts)
			for _, a := range acts {
				if !intset.Contains(lib.ImplsOfAction(a), ImplID(p)) {
					return false
				}
			}
			g := lib.Goal(ImplID(p))
			if !intset.Contains(lib.ImplsOfGoal(g), ImplID(p)) {
				return false
			}
		}
		// Postings cover exactly the slots.
		sum := 0
		for a := ActionID(0); int(a) < lib.NumActions(); a++ {
			sum += lib.ActionDegree(a)
		}
		return sum == total
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestSpacesConsistencyProperty(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 60,
		Values: func(v []reflect.Value, r *rand.Rand) {
			v[0] = reflect.ValueOf(randomLibrary(r, 1+r.Intn(60), 20, 10))
			h := make([]ActionID, 1+r.Intn(5))
			for i := range h {
				h[i] = ActionID(r.Intn(20))
			}
			v[1] = reflect.ValueOf(h)
		},
	}
	f := func(lib *Library, h []ActionID) bool {
		is := lib.ImplementationSpace(h)
		gs := lib.GoalSpace(h)
		cand := lib.Candidates(h)
		hs := intset.FromUnsorted(intset.Clone(h))

		// Every implementation in IS intersects H; its goal is in GS.
		for _, p := range is {
			if intset.IntersectionLen(lib.Actions(p), hs) == 0 {
				return false
			}
			if !intset.Contains(gs, lib.Goal(p)) {
				return false
			}
		}
		// Every goal in GS comes from some implementation in IS.
		for _, g := range gs {
			found := false
			for _, p := range lib.ImplsOfGoal(g) {
				if intset.Contains(is, p) {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		// Candidates never include the activity and always co-occur with it.
		for _, a := range cand {
			if intset.Contains(hs, a) {
				return false
			}
			hit := false
			for _, p := range lib.ImplsOfAction(a) {
				if intset.IntersectionLen(lib.Actions(p), hs) > 0 {
					hit = true
					break
				}
			}
			if !hit {
				return false
			}
		}
		return intset.IsSorted(is) && intset.IsSorted(gs) && intset.IsSorted(cand)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
