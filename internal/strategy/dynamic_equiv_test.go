package strategy_test

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"goalrec/internal/core"
	"goalrec/internal/strategy"
)

// randomImpl draws one implementation over a small id universe so goals and
// actions collide heavily — the regime where incremental index extension has
// the most merging to get right.
func randomImpl(rng *rand.Rand) (core.GoalID, []core.ActionID) {
	goal := core.GoalID(rng.Intn(15))
	acts := make([]core.ActionID, 1+rng.Intn(4))
	for i := range acts {
		acts[i] = core.ActionID(rng.Intn(30))
	}
	return goal, acts
}

// randomActivity draws a query activity, sometimes including actions the
// library has never seen.
func randomActivity(rng *rand.Rand) []core.ActionID {
	h := make([]core.ActionID, 1+rng.Intn(4))
	for i := range h {
		h[i] = core.ActionID(rng.Intn(35))
	}
	return h
}

// rankings returns the full best-first lists (k = -1) of all four goal-based
// strategies over lib for each activity.
func rankings(lib *core.Library, activities [][]core.ActionID) [][]strategy.ScoredAction {
	recs := []strategy.Recommender{
		strategy.NewFocus(lib, strategy.Completeness),
		strategy.NewFocus(lib, strategy.Closeness),
		strategy.NewBreadth(lib),
		strategy.NewBestMatch(lib),
	}
	var out [][]strategy.ScoredAction
	for _, rec := range recs {
		for _, h := range activities {
			out = append(out, rec.Recommend(h, -1))
		}
	}
	return out
}

// TestDynamicSnapshotStrategyEquivalence grows a DynamicLibrary through a
// random add sequence and checks, at every step, that its snapshot is
// indistinguishable from a fresh Builder.Build() over the same
// implementations: same stats, same goal/action spaces, and bit-identical
// full rankings from all four strategies — through both the overlay-extend
// and the compaction snapshot paths.
func TestDynamicSnapshotStrategyEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dyn := core.NewDynamicLibrary()
	dyn.SetCompactionThreshold(6) // force frequent extend/compact interleaving
	var bld core.Builder

	type frozen struct {
		snap *core.Library
		ref  *core.Library
	}
	var held []frozen

	const steps = 200
	for i := 0; i < steps; i++ {
		goal, acts := randomImpl(rng)
		if _, err := dyn.Add(goal, acts); err != nil {
			t.Fatalf("step %d: dynamic Add: %v", i, err)
		}
		if _, err := bld.Add(goal, acts); err != nil {
			t.Fatalf("step %d: builder Add: %v", i, err)
		}
		snap := dyn.Snapshot()
		ref := bld.Build()

		if got, want := snap.Stats(), ref.Stats(); got != want {
			t.Fatalf("step %d: stats diverge:\n got %v\nwant %v", i, got, want)
		}
		activities := make([][]core.ActionID, 6)
		for j := range activities {
			activities[j] = randomActivity(rng)
		}
		for _, h := range activities {
			if got, want := snap.GoalSpace(h), ref.GoalSpace(h); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: GoalSpace(%v) = %v, want %v", i, h, got, want)
			}
			if got, want := snap.ActionSpace(h), ref.ActionSpace(h); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: ActionSpace(%v) = %v, want %v", i, h, got, want)
			}
		}
		if got, want := rankings(snap, activities), rankings(ref, activities); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: strategy rankings diverge", i)
		}
		if i%25 == 0 {
			held = append(held, frozen{snap: snap, ref: ref})
		}
	}

	// Every held snapshot must still answer exactly as its frozen reference,
	// untouched by the 200 appends that followed it.
	activities := make([][]core.ActionID, 8)
	for j := range activities {
		activities[j] = randomActivity(rng)
	}
	for i, f := range held {
		if got, want := f.snap.Stats(), f.ref.Stats(); got != want {
			t.Fatalf("held %d: stats mutated:\n got %v\nwant %v", i, got, want)
		}
		if got, want := rankings(f.snap, activities), rankings(f.ref, activities); !reflect.DeepEqual(got, want) {
			t.Fatalf("held %d: rankings mutated", i)
		}
	}
}

// TestDynamicSnapshotConcurrentReaders keeps readers querying old snapshots
// (against frozen references) while a writer appends and snapshots; under
// -race this proves snapshot extension never touches memory a reader sees.
func TestDynamicSnapshotConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	dyn := core.NewDynamicLibrary()
	dyn.SetCompactionThreshold(8)
	var bld core.Builder
	for i := 0; i < 50; i++ {
		goal, acts := randomImpl(rng)
		if _, err := dyn.Add(goal, acts); err != nil {
			t.Fatal(err)
		}
		if _, err := bld.Add(goal, acts); err != nil {
			t.Fatal(err)
		}
	}
	snap := dyn.Snapshot()
	ref := bld.Build()
	activities := make([][]core.ActionID, 8)
	for j := range activities {
		activities[j] = randomActivity(rng)
	}
	want := rankings(ref, activities)

	// Pre-draw the writer's implementations so goroutines never share rng.
	type impl struct {
		goal core.GoalID
		acts []core.ActionID
	}
	pending := make([]impl, 300)
	for i := range pending {
		pending[i].goal, pending[i].acts = randomImpl(rng)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, p := range pending {
			if _, err := dyn.Add(p.goal, p.acts); err != nil {
				t.Errorf("concurrent Add: %v", err)
				return
			}
			dyn.Snapshot()
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if got := rankings(snap, activities); !reflect.DeepEqual(got, want) {
					t.Error("old snapshot's rankings changed during appends")
					return
				}
			}
		}()
	}
	wg.Wait()

	if got, want := dyn.Snapshot().NumImplementations(), 50+len(pending); got != want {
		t.Fatalf("final size = %d, want %d", got, want)
	}
}
