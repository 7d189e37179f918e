package goalrec

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func TestEngineEmpty(t *testing.T) {
	e := NewEngine()
	if got := e.Epoch(); got != 0 {
		t.Fatalf("Epoch() = %d, want 0", got)
	}
	if got := e.Len(); got != 0 {
		t.Fatalf("Len() = %d, want 0", got)
	}
	rec, err := e.Recommender(Breadth)
	if err != nil {
		t.Fatalf("Recommender: %v", err)
	}
	if got := rec.Recommend([]string{"milk"}, 3); len(got) != 0 {
		t.Fatalf("empty engine recommended %v", got)
	}
}

func TestEngineIngestAndSnapshot(t *testing.T) {
	e := NewEngine()
	if err := e.AddImplementation("pancakes", "milk", "eggs", "flour"); err != nil {
		t.Fatalf("AddImplementation: %v", err)
	}
	if got := e.Epoch(); got != 1 {
		t.Fatalf("Epoch() after first add = %d, want 1", got)
	}
	old := e.Snapshot()

	added, err := e.AddImplementations([]Implementation{
		{Goal: "omelette", Actions: []string{"eggs", "butter"}},
		{Goal: "pancakes", Actions: []string{"milk", "eggs", "butter"}},
	})
	if err != nil || added != 2 {
		t.Fatalf("AddImplementations = (%d, %v), want (2, nil)", added, err)
	}
	if got := e.Epoch(); got != 2 {
		t.Fatalf("Epoch() after batch = %d, want 2", got)
	}
	if got := e.Len(); got != 3 {
		t.Fatalf("Len() = %d, want 3", got)
	}

	// The old snapshot is frozen at its epoch.
	if got := old.NumImplementations(); got != 1 {
		t.Fatalf("old snapshot grew to %d implementations", got)
	}
	if got := old.GoalSpace([]string{"butter"}); len(got) != 0 {
		t.Fatalf("old snapshot sees later data: %v", got)
	}
	if got := old.UnknownActions([]string{"milk", "butter"}); !reflect.DeepEqual(got, []string{"butter"}) {
		t.Fatalf("old snapshot UnknownActions = %v, want [butter]", got)
	}

	// The current snapshot serves the new data.
	cur := e.Snapshot()
	if got := cur.GoalSpace([]string{"butter"}); !reflect.DeepEqual(got, []string{"omelette", "pancakes"}) {
		t.Fatalf("GoalSpace(butter) = %v", got)
	}
	if got := cur.UnknownActions([]string{"milk", "butter"}); got != nil {
		t.Fatalf("current snapshot UnknownActions = %v, want nil", got)
	}
}

func TestEngineBatchStopsAtFirstError(t *testing.T) {
	e := NewEngine()
	added, err := e.AddImplementations([]Implementation{
		{Goal: "breakfast", Actions: []string{"toast"}},
		{Goal: "", Actions: []string{"jam"}},
		{Goal: "lunch", Actions: []string{"soup"}},
	})
	if err == nil {
		t.Fatal("want error for empty goal")
	}
	if added != 1 {
		t.Fatalf("added = %d, want 1", added)
	}
	// The valid prefix is published.
	if got := e.Len(); got != 1 {
		t.Fatalf("Len() = %d, want 1", got)
	}
	if got := e.Epoch(); got != 1 {
		t.Fatalf("Epoch() = %d, want 1", got)
	}
	if got := e.Snapshot().GoalSpace([]string{"toast"}); !reflect.DeepEqual(got, []string{"breakfast"}) {
		t.Fatalf("GoalSpace(toast) = %v", got)
	}
}

func TestEngineFromLibraryAndSwap(t *testing.T) {
	b := NewBuilder()
	if err := b.AddImplementation("pasta", "noodles", "sauce"); err != nil {
		t.Fatal(err)
	}
	e := NewEngineFromLibrary(b.Build())
	if got := e.Epoch(); got != 1 {
		t.Fatalf("Epoch() after seed = %d, want 1", got)
	}
	if got := e.Snapshot().GoalSpace([]string{"sauce"}); !reflect.DeepEqual(got, []string{"pasta"}) {
		t.Fatalf("seeded GoalSpace(sauce) = %v", got)
	}
	// Appending on top of the seed works.
	if err := e.AddImplementation("pasta", "noodles", "cheese"); err != nil {
		t.Fatal(err)
	}
	if got := e.Snapshot().GoalSpace([]string{"cheese"}); !reflect.DeepEqual(got, []string{"pasta"}) {
		t.Fatalf("appended GoalSpace(cheese) = %v", got)
	}

	old := e.Snapshot()
	b2 := NewBuilder()
	if err := b2.AddImplementation("salad", "lettuce"); err != nil {
		t.Fatal(err)
	}
	swapped := e.Swap(b2.Build())
	if got := swapped.Epoch(); got != e.Epoch() || got <= old.Epoch() {
		t.Fatalf("swap epoch = %d (engine %d, old %d)", got, e.Epoch(), old.Epoch())
	}
	if got := e.Snapshot().GoalSpace([]string{"lettuce"}); !reflect.DeepEqual(got, []string{"salad"}) {
		t.Fatalf("swapped GoalSpace(lettuce) = %v", got)
	}
	// The pre-swap snapshot still answers from its own vocabulary and data.
	if got := old.GoalSpace([]string{"sauce"}); !reflect.DeepEqual(got, []string{"pasta"}) {
		t.Fatalf("old GoalSpace(sauce) after swap = %v", got)
	}
	// And post-swap appends extend the new lineage.
	if err := e.AddImplementation("salad", "lettuce", "tomato"); err != nil {
		t.Fatal(err)
	}
	if got := e.Snapshot().GoalSpace([]string{"tomato"}); !reflect.DeepEqual(got, []string{"salad"}) {
		t.Fatalf("post-swap GoalSpace(tomato) = %v", got)
	}
}

func TestEngineRecommenderPerEpoch(t *testing.T) {
	e := NewEngine()
	if err := e.AddImplementation("pancakes", "milk", "eggs", "flour"); err != nil {
		t.Fatal(err)
	}
	r1, err := e.Recommender(Breadth)
	if err != nil {
		t.Fatal(err)
	}
	r1again, err := e.Recommender(Breadth)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r1again {
		t.Fatal("same epoch, no options: want the shared recommender instance")
	}

	if err := e.AddImplementation("omelette", "eggs", "butter"); err != nil {
		t.Fatal(err)
	}
	r2, err := e.Recommender(Breadth)
	if err != nil {
		t.Fatal(err)
	}
	if r2 == r1 {
		t.Fatal("new epoch: want a fresh recommender, got the cached one")
	}
	// The old recommender keeps answering from its epoch.
	for _, rec := range r1.Recommend([]string{"eggs"}, 10) {
		if rec.Action == "butter" {
			t.Fatal("epoch-1 recommender surfaced epoch-2 data")
		}
	}
	found := false
	for _, rec := range r2.Recommend([]string{"eggs"}, 10) {
		found = found || rec.Action == "butter"
	}
	if !found {
		t.Fatal("epoch-2 recommender missing epoch-2 data")
	}

	// Identical resolved options share one per-epoch instance (including
	// its cache); differing options get their own.
	opt1, err := e.Recommender(Breadth, WithCache(8))
	if err != nil {
		t.Fatal(err)
	}
	opt2, err := e.Recommender(Breadth, WithCache(8))
	if err != nil {
		t.Fatal(err)
	}
	if opt1 != opt2 {
		t.Fatal("identical options should share one per-epoch recommender")
	}
	opt3, err := e.Recommender(Breadth, WithBreadthWeighting("count"))
	if err != nil {
		t.Fatal(err)
	}
	if opt3 == opt1 {
		t.Fatal("differing options should not share an instance")
	}
	if _, err := e.Recommender(Strategy("nope")); err == nil {
		t.Fatal("want error for unknown strategy")
	}
}

// TestCurrentFollowsEpochs is the epoch-invalidation regression test for
// the cached path: a WithCache recommender fetched from Engine.Current after
// an ingest must surface the ingested implementation — never a ranking cached
// against a superseded epoch — and must come paired with the snapshot it
// scores.
func TestCurrentFollowsEpochs(t *testing.T) {
	e := NewEngine()
	if err := e.AddImplementation("pancakes", "milk", "eggs", "flour"); err != nil {
		t.Fatal(err)
	}
	current := func() (*Library, Recommender) {
		t.Helper()
		lib, rec, err := e.Current(Breadth, WithCache(8))
		if err != nil {
			t.Fatal(err)
		}
		return lib, rec
	}
	activity := []string{"eggs"}
	// Two queries: the second is served from the epoch's cache.
	lib1, rec1 := current()
	rec1.Recommend(activity, 10)
	if _, again := current(); again != rec1 {
		t.Fatal("same epoch, same options: want the shared cached recommender")
	}
	for _, rec := range rec1.Recommend(activity, 10) {
		if rec.Action == "butter" {
			t.Fatal("butter recommended before it was ingested")
		}
	}

	if err := e.AddImplementation("omelette", "eggs", "butter"); err != nil {
		t.Fatal(err)
	}
	lib2, rec2 := current()
	if lib2.Epoch() != lib1.Epoch()+1 || lib2 != e.Snapshot() {
		t.Fatalf("Current snapshot at epoch %d, want the engine's epoch %d", lib2.Epoch(), e.Epoch())
	}
	found := false
	for _, rec := range rec2.Recommend(activity, 10) {
		found = found || rec.Action == "butter"
	}
	if !found {
		t.Fatal("cached recommender fetched after the ingest served the previous epoch's ranking")
	}

	// A batch scores the whole batch against the fetched epoch and sees the
	// ingest too.
	results := rec2.RecommendBatch(context.Background(), [][]string{activity, {"milk"}}, 10)
	if len(results) != 2 {
		t.Fatalf("batch results = %d, want 2", len(results))
	}
	found = false
	for _, rec := range results[0].Recommendations {
		found = found || rec.Action == "butter"
	}
	if !found {
		t.Fatal("batch missing the ingested implementation")
	}

	// Invalid configurations are refused.
	if _, _, err := e.Current(Breadth, WithBreadthWeighting("nope")); err == nil {
		t.Fatal("want error for invalid weighting")
	}
	if _, _, err := e.Current(Strategy("bogus")); err == nil {
		t.Fatal("want error for unknown strategy")
	}
}

// TestEngineConcurrentIngestAndQuery hammers one engine with a writer and
// many readers; under -race it proves snapshot publication is safe.
func TestEngineConcurrentIngestAndQuery(t *testing.T) {
	e := NewEngine()
	const writes = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writes; i++ {
			goal := fmt.Sprintf("goal%d", i%17)
			if err := e.AddImplementation(goal,
				fmt.Sprintf("act%d", i%31), fmt.Sprintf("act%d", (i+7)%31)); err != nil {
				t.Errorf("AddImplementation: %v", err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			held := e.Snapshot()
			heldN := held.NumImplementations()
			for i := 0; i < 100; i++ {
				lib := e.Snapshot()
				rec, err := e.Recommender(BestMatch)
				if err != nil {
					t.Errorf("Recommender: %v", err)
					return
				}
				rec.Recommend([]string{"act3", "act10"}, 5)
				lib.GoalSpace([]string{"act3"})
				lib.TopGoals([]string{"act3", "act10"}, 3)
				if got := held.NumImplementations(); got != heldN {
					t.Errorf("held snapshot changed size: %d -> %d", heldN, got)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := e.Len(); got != writes {
		t.Fatalf("Len() = %d, want %d", got, writes)
	}
}
