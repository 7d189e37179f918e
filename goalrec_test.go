package goalrec

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"goalrec/internal/core"
)

// groceryLibrary builds the running example of the paper's introduction:
// recipes over grocery products.
func groceryLibrary(t *testing.T) *Library {
	t.Helper()
	b := NewBuilder()
	must := func(goal string, actions ...string) {
		t.Helper()
		if err := b.AddImplementation(goal, actions...); err != nil {
			t.Fatal(err)
		}
	}
	must("olivier salad", "potatoes", "carrots", "pickles")
	must("mashed potatoes", "potatoes", "nutmeg", "butter")
	must("pan-fried carrots", "carrots", "nutmeg")
	must("beer snacks", "beer", "peanuts")
	return b.Build()
}

func TestBuilderValidation(t *testing.T) {
	b := NewBuilder()
	if err := b.AddImplementation("", "x"); err == nil {
		t.Error("empty goal accepted")
	}
	if err := b.AddImplementation("g"); err == nil {
		t.Error("empty implementation accepted")
	}
	if err := b.AddImplementation("g", ""); err == nil {
		t.Error("empty action name accepted")
	}
	if b.Len() != 0 {
		t.Errorf("failed adds counted: %d", b.Len())
	}
	var zero Builder
	if err := zero.AddImplementation("g", "a"); err != nil {
		t.Errorf("zero-value Builder unusable: %v", err)
	}
}

func TestLibraryDimensions(t *testing.T) {
	lib := groceryLibrary(t)
	if lib.NumImplementations() != 4 {
		t.Errorf("implementations = %d", lib.NumImplementations())
	}
	if lib.NumActions() != 7 {
		t.Errorf("actions = %d", lib.NumActions())
	}
	if lib.NumGoals() != 4 {
		t.Errorf("goals = %d", lib.NumGoals())
	}
	if got := lib.Stats().Implementations; got != 4 {
		t.Errorf("stats implementations = %d", got)
	}
	if got := lib.Actions(); len(got) != 7 || got[0] != "beer" {
		t.Errorf("Actions() = %v", got)
	}
	if got := lib.Goals(); len(got) != 4 || got[0] != "beer snacks" {
		t.Errorf("Goals() = %v", got)
	}
}

func TestSpacesByName(t *testing.T) {
	lib := groceryLibrary(t)
	gs := lib.GoalSpace([]string{"potatoes", "carrots"})
	want := []string{"mashed potatoes", "olivier salad", "pan-fried carrots"}
	if !reflect.DeepEqual(gs, want) {
		t.Errorf("GoalSpace = %v, want %v", gs, want)
	}
	as := lib.ActionSpace([]string{"potatoes"})
	wantAS := []string{"butter", "carrots", "nutmeg", "pickles"}
	if !reflect.DeepEqual(as, wantAS) {
		t.Errorf("ActionSpace = %v, want %v", as, wantAS)
	}
	// Unknown actions are ignored, not errors.
	if got := lib.GoalSpace([]string{"spaceship"}); got != nil && len(got) != 0 {
		t.Errorf("GoalSpace(unknown) = %v", got)
	}
}

func TestGoalProgress(t *testing.T) {
	lib := groceryLibrary(t)
	prog := lib.GoalProgress([]string{"potatoes", "carrots"})
	if got := prog["olivier salad"]; got != 2.0/3.0 {
		t.Errorf("olivier progress = %v, want 2/3", got)
	}
	if got := prog["pan-fried carrots"]; got != 0.5 {
		t.Errorf("pan-fried progress = %v, want 1/2", got)
	}
	if _, ok := prog["beer snacks"]; ok {
		t.Error("unrelated goal in progress map")
	}
}

func TestTopGoals(t *testing.T) {
	lib := groceryLibrary(t)
	got := lib.TopGoals([]string{"potatoes", "carrots"}, -1)
	if len(got) != 3 {
		t.Fatalf("TopGoals = %v", got)
	}
	// Olivier salad: 2/3 complete with support 2; the others 1-action
	// matches.
	if got[0].Goal != "olivier salad" || got[0].Progress != 2.0/3.0 || got[0].Support != 2 {
		t.Errorf("top goal = %+v", got[0])
	}
	for _, gm := range got[1:] {
		if gm.Progress > got[0].Progress {
			t.Errorf("ordering broken: %+v", got)
		}
	}
	if topped := lib.TopGoals([]string{"potatoes", "carrots"}, 1); len(topped) != 1 {
		t.Errorf("k=1 returned %d", len(topped))
	}
	if none := lib.TopGoals([]string{"spaceship"}, 5); len(none) != 0 {
		t.Errorf("unknown activity = %v", none)
	}
	if zero := lib.TopGoals([]string{"potatoes"}, 0); zero != nil {
		t.Errorf("k=0 = %v", zero)
	}
}

func TestImplementationsAccess(t *testing.T) {
	lib := groceryLibrary(t)
	impls := lib.ImplementationsOf("olivier salad")
	if len(impls) != 1 {
		t.Fatalf("ImplementationsOf = %v", impls)
	}
	if impls[0].Goal != "olivier salad" || len(impls[0].Actions) != 3 {
		t.Errorf("implementation = %+v", impls[0])
	}
	if got := lib.ImplementationsOf("unknown dish"); got != nil {
		t.Errorf("unknown goal = %v", got)
	}
	with := lib.ImplementationsWith("nutmeg")
	if len(with) != 2 {
		t.Fatalf("ImplementationsWith(nutmeg) = %v", with)
	}
	if got := lib.ImplementationsWith("spaceship"); got != nil {
		t.Errorf("unknown action = %v", got)
	}
}

func TestExplain(t *testing.T) {
	lib := groceryLibrary(t)
	got := lib.Explain([]string{"potatoes", "carrots"}, "pickles")
	if len(got) != 1 {
		t.Fatalf("Explain = %v", got)
	}
	e := got[0]
	if e.Goal != "olivier salad" || e.Implementations != 1 {
		t.Errorf("explanation = %+v", e)
	}
	if e.ProgressBefore != 2.0/3.0 || e.ProgressAfter != 1 {
		t.Errorf("progress = %v -> %v, want 2/3 -> 1", e.ProgressBefore, e.ProgressAfter)
	}
	// nutmeg serves two goals in the activity's space.
	nut := lib.Explain([]string{"potatoes", "carrots"}, "nutmeg")
	if len(nut) != 2 {
		t.Fatalf("Explain(nutmeg) = %v", nut)
	}
	// Unknown or irrelevant actions explain to nothing.
	if got := lib.Explain([]string{"potatoes"}, "spaceship"); got != nil {
		t.Errorf("unknown action = %v", got)
	}
	if got := lib.Explain([]string{"potatoes"}, "peanuts"); got != nil {
		t.Errorf("irrelevant action = %v", got)
	}
}

func TestExplainConsistencyWithStrategies(t *testing.T) {
	// Every goal-based recommendation must be explainable, and performing a
	// recommended action never reduces any explained goal's progress.
	lib := groceryLibrary(t)
	for _, s := range Strategies() {
		rec := lib.MustRecommender(s)
		for _, activity := range [][]string{
			{"potatoes"}, {"carrots", "nutmeg"}, {"potatoes", "carrots", "beer"},
		} {
			for _, r := range rec.Recommend(activity, 10) {
				exps := lib.Explain(activity, r.Action)
				if len(exps) == 0 {
					t.Errorf("%s: recommendation %q for %v has no explanation", s, r.Action, activity)
					continue
				}
				for _, e := range exps {
					if e.ProgressAfter < e.ProgressBefore {
						t.Errorf("%s: %q regressed goal %q: %v -> %v",
							s, r.Action, e.Goal, e.ProgressBefore, e.ProgressAfter)
					}
				}
			}
		}
	}
}

func TestRecommenderStrategies(t *testing.T) {
	lib := groceryLibrary(t)
	activity := []string{"potatoes", "carrots"}
	for _, s := range Strategies() {
		rec, err := lib.Recommender(s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if rec.Name() != string(s) {
			t.Errorf("Name = %q, want %q", rec.Name(), s)
		}
		got := rec.Recommend(activity, 10)
		if len(got) == 0 {
			t.Fatalf("%s produced nothing", s)
		}
		for _, r := range got {
			if r.Action == "potatoes" || r.Action == "carrots" {
				t.Errorf("%s recommended a performed action: %v", s, r)
			}
			if r.Action == "beer" || r.Action == "peanuts" {
				t.Errorf("%s recommended an unrelated action: %v", s, r)
			}
		}
	}
	if _, err := lib.Recommender(Strategy("bogus")); err == nil {
		t.Error("unknown strategy accepted")
	}
}

// TestResolveStrategy pins the one strategy-name table: the defaults, the
// canonical response name — which must be the Name() of the recommender the
// selection builds — and that every rejection is a *QueryError.
func TestResolveStrategy(t *testing.T) {
	lib := groceryLibrary(t)
	for _, tc := range []struct{ strategy, metric, name, err string }{
		{"", "", "breadth", ""},
		{"focus-cmp", "", "focus-cmp", ""},
		{"focus-cl", "jaccard", "focus-cl", ""},
		{"best-match", "", "best-match", ""},
		{"best-match", "cosine", "best-match", ""},
		{"best-match", "manhattan", "best-match-manhattan", ""},
		{"breadth-count", "", "", `goalrec: unknown strategy "breadth-count"`},
		{"breadth", "hamming", "", `goalrec: strategy: unknown metric "hamming"`},
		{"nope", "hamming", "", `goalrec: strategy: unknown metric "hamming"`},
	} {
		spec, err := ResolveStrategy(tc.strategy, tc.metric)
		if tc.err != "" {
			var qe *QueryError
			if err == nil || err.Error() != tc.err || !errors.As(err, &qe) {
				t.Errorf("ResolveStrategy(%q, %q) error = %v, want the *QueryError %q", tc.strategy, tc.metric, err, tc.err)
			}
			continue
		}
		if err != nil || spec.Name != tc.name {
			t.Errorf("ResolveStrategy(%q, %q) = %+v, %v; want name %q", tc.strategy, tc.metric, spec, err, tc.name)
			continue
		}
		rec, err := lib.Recommender(Strategy(tc.strategy), WithDistanceMetric(spec.Metric.String()))
		if err != nil || rec.Name() != spec.Name {
			t.Errorf("Recommender(%q, %q): name %q, err %v; the table says %q", tc.strategy, spec.Metric, rec.Name(), err, spec.Name)
		}
	}
	var qe *QueryError
	if _, err := lib.Recommender(Breadth, WithBreadthWeighting("nope")); !errors.As(err, &qe) {
		t.Errorf("unknown weighting: %v is not a *QueryError", err)
	}
}

func TestIntroductionScenario(t *testing.T) {
	// The paper's introduction: potatoes + carrots in the cart → pickles
	// (completing the olivier salad) and nutmeg (serving both mashed
	// potatoes and pan-fried carrots) are goal-based recommendations.
	lib := groceryLibrary(t)
	rec := lib.MustRecommender(Breadth)
	got := rec.Recommend([]string{"potatoes", "carrots"}, 2)
	names := []string{got[0].Action, got[1].Action}
	if !(contains(names, "pickles") && contains(names, "nutmeg")) {
		t.Errorf("top-2 = %v, want pickles and nutmeg", names)
	}
}

func TestMustRecommenderPanics(t *testing.T) {
	lib := groceryLibrary(t)
	defer func() {
		if recover() == nil {
			t.Error("MustRecommender with bogus strategy did not panic")
		}
	}()
	lib.MustRecommender(Strategy("bogus"))
}

func TestRecommenderOptions(t *testing.T) {
	lib := groceryLibrary(t)
	activity := []string{"potatoes", "carrots"}
	cos := lib.MustRecommender(BestMatch).Recommend(activity, 5)
	euc := lib.MustRecommender(BestMatch, WithDistanceMetric("euclidean")).Recommend(activity, 5)
	if len(cos) == 0 || len(euc) == 0 {
		t.Fatal("metric variants produced nothing")
	}
	cnt := lib.MustRecommender(Breadth, WithBreadthWeighting("count")).Recommend(activity, 5)
	if len(cnt) == 0 {
		t.Fatal("count weighting produced nothing")
	}
}

func TestRecommendBatch(t *testing.T) {
	lib := groceryLibrary(t)
	rec := lib.MustRecommender(Breadth)
	activities := [][]string{
		{"potatoes", "carrots"},
		{"beer"},
		nil,
		{"nutmeg"},
	}
	got := RecommendBatch(rec, activities, 3)
	if len(got) != len(activities) {
		t.Fatalf("batch size = %d", len(got))
	}
	for i, h := range activities {
		want := rec.Recommend(h, 3)
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("batch[%d] diverged from sequential", i)
		}
	}
	if out := RecommendBatch(rec, nil, 3); len(out) != 0 {
		t.Errorf("empty batch = %v", out)
	}
}

// TestRecommendBatchUnknownActions pins that batch results carry each item's
// unknown names — shared batch-level resolution must report exactly what
// per-item UnknownActions would.
func TestRecommendBatchUnknownActions(t *testing.T) {
	lib := groceryLibrary(t)
	rec := lib.MustRecommender(Breadth)
	activities := [][]string{
		{"potatoes", "warp-core", "carrots", "warp-core", "antimatter"},
		{"potatoes"},
		{"dilithium"},
	}
	results := rec.RecommendBatch(context.Background(), activities, 3)
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("batch[%d]: %v", i, res.Err)
		}
		if want := lib.UnknownActions(activities[i]); !reflect.DeepEqual(res.UnknownActions, want) {
			t.Errorf("batch[%d] unknown = %v, want %v", i, res.UnknownActions, want)
		}
		if want := rec.Recommend(activities[i], 3); !reflect.DeepEqual(res.Recommendations, want) {
			t.Errorf("batch[%d] diverged from sequential", i)
		}
	}
}

// TestDuplicateActionsDoNotDoubleCount pins that repeating an action name in
// an activity changes nothing: a history is a set, and neither the single
// nor the batch path may double-count a duplicated name's postings.
func TestDuplicateActionsDoNotDoubleCount(t *testing.T) {
	lib := groceryLibrary(t)
	clean := []string{"potatoes", "carrots"}
	dups := []string{"potatoes", "carrots", "potatoes", "carrots", "potatoes"}
	for _, s := range Strategies() {
		rec := lib.MustRecommender(s)
		want := rec.Recommend(clean, 5)
		if got := rec.Recommend(dups, 5); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: duplicated activity diverged:\ngot  %v\nwant %v", s, got, want)
		}
		batch := rec.RecommendBatch(context.Background(), [][]string{dups, clean}, 5)
		if !reflect.DeepEqual(batch[0].Recommendations, want) || !reflect.DeepEqual(batch[1].Recommendations, want) {
			t.Errorf("%s: batch with duplicated activity diverged", s)
		}
	}
}

func TestWithCache(t *testing.T) {
	lib := groceryLibrary(t)
	plain := lib.MustRecommender(Breadth)
	cached := lib.MustRecommender(Breadth, WithCache(8))
	activity := []string{"potatoes", "carrots"}
	want := plain.Recommend(activity, 3)
	for i := 0; i < 3; i++ {
		if got := cached.Recommend(activity, 3); !reflect.DeepEqual(got, want) {
			t.Fatalf("cached output diverged: %v vs %v", got, want)
		}
	}
	if cached.Name() != "breadth" {
		t.Errorf("Name = %q", cached.Name())
	}
	// Non-positive capacity falls back to the default rather than disabling.
	if got := lib.MustRecommender(Breadth, WithCache(-1)).Recommend(activity, 3); !reflect.DeepEqual(got, want) {
		t.Errorf("default-capacity cache diverged: %v", got)
	}
}

func TestSaveLoadJSON(t *testing.T) {
	lib := groceryLibrary(t)
	var buf bytes.Buffer
	if err := lib.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadLibraryJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumImplementations() != lib.NumImplementations() {
		t.Errorf("round trip lost implementations")
	}
	r1 := lib.MustRecommender(Breadth).Recommend([]string{"potatoes"}, 5)
	r2 := got.MustRecommender(Breadth).Recommend([]string{"potatoes"}, 5)
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("round trip changed recommendations: %v vs %v", r1, r2)
	}
	if _, err := LoadLibraryJSON(strings.NewReader("garbage")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestRelatedGoals(t *testing.T) {
	lib := groceryLibrary(t)
	// olivier salad = {potatoes, carrots, pickles};
	// mashed potatoes = {potatoes, nutmeg, butter} shares 1 of 5;
	// pan-fried carrots = {carrots, nutmeg} shares 1 of 4.
	got := lib.RelatedGoals("olivier salad", -1)
	if len(got) != 2 {
		t.Fatalf("RelatedGoals = %v", got)
	}
	if got[0].Goal != "pan-fried carrots" {
		t.Errorf("top related = %v, want pan-fried carrots (1/4 > 1/5)", got[0])
	}
	if got[0].SharedActions != 1 || got[0].Similarity != 0.25 {
		t.Errorf("top related = %+v", got[0])
	}
	// beer snacks shares nothing and never appears.
	for _, r := range got {
		if r.Goal == "beer snacks" {
			t.Error("unrelated goal listed")
		}
	}
	if lib.RelatedGoals("unknown", 5) != nil {
		t.Error("unknown goal accepted")
	}
	if lib.RelatedGoals("olivier salad", 0) != nil {
		t.Error("k=0 returned results")
	}
	if top1 := lib.RelatedGoals("olivier salad", 1); len(top1) != 1 {
		t.Errorf("k=1 = %v", top1)
	}
}

// TestRelatedGoalsMatchesOracle checks RelatedGoals, which reads each goal's
// whole GA row — stored, or assembled from the implementation rows of a goal
// whose implementations share no action — and Stats against the Jaccard of
// the sorted union of each goal's implementations' actions and the shape
// statistics, recomputed from the source rows. The libraries hold goals of
// every kind (random ones that mostly share actions, a single-implementation
// one, action-disjoint ones) and come flat, through an ingest history — a
// disjoint goal made to share an action, one kept disjoint, a new goal, then
// a compaction — and mapped. The reads alias the library's rows, so these
// must be unchanged afterwards.
func TestRelatedGoalsMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	type row struct {
		goal    string
		actions []string
	}
	randomRows := func(n int) []row {
		rows := make([]row, n)
		for i := range rows {
			rows[i].goal = fmt.Sprintf("g%d", r.Intn(12))
			for j := 1 + r.Intn(5); j > 0; j-- {
				rows[i].actions = append(rows[i].actions, fmt.Sprintf("a%d", r.Intn(20)))
			}
		}
		return rows
	}
	base := append(randomRows(40),
		row{"single", []string{"a1", "a2"}},
		row{"disjoint-0", []string{"a1", "a2"}}, row{"disjoint-0", []string{"a3"}},
		row{"disjoint-1", []string{"a4"}}, row{"disjoint-1", []string{"a5", "a6"}})
	r.Shuffle(len(base), func(i, j int) { base[i], base[j] = base[j], base[i] })
	b := NewBuilder()
	for _, rw := range base {
		if err := b.AddImplementation(rw.goal, rw.actions...); err != nil {
			t.Fatal(err)
		}
	}
	flat := b.Build()

	type libCase struct {
		name string
		lib  *Library
		rows []row
	}
	cases := []libCase{{"flat", flat, base}}
	e := NewEngineFromLibrary(flat)
	rows := slices.Clone(base)
	for _, step := range []struct {
		name string
		add  []row
	}{
		{"disjoint goal made to share an action", []row{{"disjoint-0", []string{"a2", "a7"}}}},
		{"disjoint goal kept disjoint", []row{{"disjoint-1", []string{"a8"}}}},
		{"new goal", []row{{"new", []string{"a1", "a9"}}}},
		{"compaction", randomRows(15)},
	} {
		if step.name == "compaction" {
			e.dyn.SetCompactionThreshold(1)
		}
		batch := make([]Implementation, len(step.add)) // one publish per step
		for i, rw := range step.add {
			batch[i] = Implementation{Goal: rw.goal, Actions: rw.actions}
		}
		if _, err := e.AddImplementations(batch); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, step.add...)
		cases = append(cases, libCase{step.name, e.Snapshot(), slices.Clone(rows)})
	}
	if extended := cases[3].lib.lib; extended.Overlay().GoalRows == 0 {
		t.Fatal("the ingest left no overlay goal rows")
	}
	if compacted := cases[4].lib.lib; compacted.TailImplementations() != 0 {
		t.Fatalf("the last ingest left %d implementations in the tail", compacted.TailImplementations())
	}
	for _, c := range []libCase{cases[0], cases[3]} {
		path := filepath.Join(t.TempDir(), "lib.gsnp")
		if err := c.lib.SaveSnapshotFile(path, false); err != nil {
			t.Fatal(err)
		}
		snap, err := OpenSnapshotFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer snap.Close()
		if !snap.Library().lib.Mapped() {
			t.Fatal("the snapshot library is not mapped")
		}
		cases = append(cases, libCase{"mapped " + c.name, snap.Library(), c.rows})
	}

	// union is every goal's sorted union of its implementations' actions.
	union := func(rows []row) map[string][]string {
		u := map[string][]string{}
		for _, rw := range rows {
			u[rw.goal] = append(u[rw.goal], rw.actions...)
		}
		for g, acts := range u {
			slices.Sort(acts)
			u[g] = slices.Compact(acts)
		}
		return u
	}
	// oracle is RelatedGoals by definition over rows.
	oracle := func(rows []row, goal string) []RelatedGoal {
		u := union(rows)
		ref, ok := u[goal]
		if !ok {
			return nil
		}
		var out []RelatedGoal
		for g, other := range u {
			shared := 0
			for _, a := range other {
				if _, found := slices.BinarySearch(ref, a); found {
					shared++
				}
			}
			if g == goal || shared == 0 {
				continue
			}
			out = append(out, RelatedGoal{Goal: g, SharedActions: shared,
				Similarity: float64(shared) / float64(len(ref)+len(other)-shared)})
		}
		slices.SortFunc(out, func(x, y RelatedGoal) int {
			if x.Similarity != y.Similarity {
				return cmp.Compare(y.Similarity, x.Similarity)
			}
			if x.SharedActions != y.SharedActions {
				return y.SharedActions - x.SharedActions
			}
			return strings.Compare(x.Goal, y.Goal)
		})
		return out
	}
	// naiveStats is Stats by definition over rows, in the id spaces of lib.
	naiveStats := func(rows []row, lib *Library) Stats {
		s := Stats{Implementations: len(rows), ActionIDSpace: lib.NumActions(), GoalIDSpace: lib.NumGoals()}
		degree := map[string]int{}
		for _, rw := range rows {
			acts := slices.Clone(rw.actions)
			slices.Sort(acts)
			acts = slices.Compact(acts)
			s.TotalSlots += len(acts)
			s.MaxImplLen = max(s.MaxImplLen, len(acts))
			for _, a := range acts {
				degree[a]++
				s.MaxConnectivity = max(s.MaxConnectivity, degree[a])
			}
		}
		u := union(rows)
		pairs := 0
		for _, acts := range u {
			pairs += len(acts)
		}
		s.Actions, s.Goals = len(degree), len(u)
		s.AvgImplLen = float64(s.TotalSlots) / float64(s.Implementations)
		s.Connectivity = float64(s.TotalSlots) / float64(s.Actions)
		s.AvgImplsPerGoal = float64(s.Implementations) / float64(s.Goals)
		s.AvgGoalsPerAction = float64(pairs) / float64(s.Actions)
		return s
	}

	for _, tc := range cases {
		if got, want := tc.lib.Stats(), naiveStats(tc.rows, tc.lib); got != want {
			t.Errorf("%s: Stats() = %+v, want %+v", tc.name, got, want)
		}
		cl := tc.lib.lib
		before := make([][]core.ActionID, cl.NumGoals())
		for g := range before {
			acts, _ := cl.ActionsOfGoal(core.GoalID(g))
			before[g] = slices.Clone(acts)
		}
		for _, goal := range tc.lib.Goals() {
			want := oracle(tc.rows, goal)
			if got := tc.lib.RelatedGoals(goal, -1); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: RelatedGoals(%q) = %v, want %v", tc.name, goal, got, want)
			}
			if got := tc.lib.RelatedGoals(goal, 2); len(want) > 2 && !reflect.DeepEqual(got, want[:2]) {
				t.Errorf("%s: RelatedGoals(%q, 2) = %v, want %v", tc.name, goal, got, want[:2])
			}
		}
		for g, want := range before {
			if acts, _ := cl.ActionsOfGoal(core.GoalID(g)); !slices.Equal(acts, want) {
				t.Errorf("%s: goal %d's GA row is %v after RelatedGoals, was %v", tc.name, g, acts, want)
			}
		}
	}
}

func TestMergeLibraries(t *testing.T) {
	a := NewBuilder()
	if err := a.AddImplementation("olivier salad", "potatoes", "carrots", "pickles"); err != nil {
		t.Fatal(err)
	}
	b := NewBuilder()
	if err := b.AddImplementation("mashed potatoes", "potatoes", "nutmeg"); err != nil {
		t.Fatal(err)
	}
	merged := MergeLibraries(a.Build(), b.Build())
	if merged.NumImplementations() != 2 {
		t.Fatalf("implementations = %d", merged.NumImplementations())
	}
	// "potatoes" unified across sources: its goal space spans both.
	gs := merged.GoalSpace([]string{"potatoes"})
	if len(gs) != 2 {
		t.Errorf("goal space of potatoes = %v", gs)
	}
	if got := MergeLibraries(); got.NumImplementations() != 0 {
		t.Errorf("empty merge = %d implementations", got.NumImplementations())
	}
}

func TestDeduplicate(t *testing.T) {
	b := NewBuilder()
	for _, goal := range []string{"get fit", "get fit", "save money"} {
		if err := b.AddImplementation(goal, "join gym", "jog daily"); err != nil {
			t.Fatal(err)
		}
	}
	lib := b.Build()
	out, stats := lib.Deduplicate(1)
	if stats.ExactDuplicates != 1 || stats.Kept != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if out.NumImplementations() != 2 {
		t.Errorf("size = %d", out.NumImplementations())
	}
	// Names survive (the vocabulary is shared).
	if got := out.GoalSpace([]string{"join gym"}); len(got) != 2 {
		t.Errorf("goal space = %v", got)
	}
}

func TestExportDOT(t *testing.T) {
	lib := groceryLibrary(t)
	var buf bytes.Buffer
	if err := lib.ExportDOT(&buf, 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "graph goalmodel") || !strings.Contains(out, "olivier salad") {
		t.Errorf("DOT output wrong:\n%s", out)
	}
	if strings.Contains(out, "impl2 ") {
		t.Error("maxImpls cap ignored")
	}
}

func TestLoadLibraryFile(t *testing.T) {
	lib := groceryLibrary(t)
	dir := t.TempDir()

	jsonPath := filepath.Join(dir, "lib.jsonl")
	jf, err := os.Create(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := lib.SaveJSON(jf); err != nil {
		t.Fatal(err)
	}
	jf.Close()

	snapPath := filepath.Join(dir, "lib.gsnp")
	if err := lib.SaveSnapshotFile(snapPath, false); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{jsonPath, snapPath} {
		got, err := LoadLibraryFile(path)
		if err != nil {
			t.Fatalf("LoadLibraryFile(%s): %v", path, err)
		}
		if got.NumImplementations() != lib.NumImplementations() {
			t.Errorf("%s: implementation count changed", path)
		}
	}
	if _, err := LoadLibraryFile(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file accepted")
	}
	empty := filepath.Join(dir, "empty")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadLibraryFile(empty); err == nil {
		t.Error("empty file accepted")
	}
	// Anything but JSON lines or a snapshot is refused by name, the retired
	// binary codec's "GLIB" files included.
	legacy := filepath.Join(dir, "lib.bin")
	if err := os.WriteFile(legacy, []byte("BILG\x01\x00\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadLibraryFile(legacy); err == nil || !strings.Contains(err.Error(), "JSON-lines") || !strings.Contains(err.Error(), "GSNP") {
		t.Errorf("legacy binary file: error %v, want one naming both accepted formats", err)
	}
}

// A JSON-lines file may start with blank lines or spaces (LoadLibraryJSON
// ignores them); the sniff used to send such a file to the binary codec
// ("core: bad magic"). Errors still count the file's own lines.
func TestLoadLibraryFileLeadingWhitespace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "lib.jsonl")
	if err := os.WriteFile(path, []byte("\n  {\"goal\":\"g\",\"actions\":[\"a\",\"b\"]}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	lib, err := LoadLibraryFile(path)
	if err != nil {
		t.Fatalf("LoadLibraryFile: %v", err)
	}
	if lib.NumImplementations() != 1 {
		t.Errorf("NumImplementations = %d, want 1", lib.NumImplementations())
	}
	bad := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(bad, []byte("\n\n{\"goal\":\"g\",\"actions\":[]}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadLibraryFile(bad); err == nil || !strings.Contains(err.Error(), "line 3:") {
		t.Errorf("error %v, want one naming line 3", err)
	}
}

func TestBreadthWeightingVariantsByName(t *testing.T) {
	lib := groceryLibrary(t)
	activity := []string{"potatoes", "carrots"}
	for _, name := range []string{"overlap", "count", "union"} {
		rec := lib.MustRecommender(Breadth, WithBreadthWeighting(name))
		if got := rec.Recommend(activity, 3); len(got) == 0 {
			t.Errorf("weighting %q produced nothing", name)
		}
	}
	if got := lib.MustRecommender(Breadth, WithBreadthWeighting("count")).Name(); got != "breadth-count" {
		t.Errorf("Name = %q", got)
	}
}

func TestRecommenderOptionErrorsSurface(t *testing.T) {
	lib := groceryLibrary(t)
	if _, err := lib.Recommender(Breadth, WithBreadthWeighting("no-such-weighting")); err == nil {
		t.Error("unknown breadth weighting silently accepted")
	}
	if _, err := lib.Recommender(BestMatch, WithDistanceMetric("no-such-metric")); err == nil {
		t.Error("unknown distance metric silently accepted")
	}
	// The error surfaces even when the option does not apply to the chosen
	// strategy: a typo should never be swallowed.
	if _, err := lib.Recommender(Breadth, WithDistanceMetric("no-such-metric")); err == nil {
		t.Error("unknown metric ignored by non-best-match strategy")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustRecommender did not panic on an invalid option")
			}
		}()
		lib.MustRecommender(Breadth, WithBreadthWeighting("no-such-weighting"))
	}()
}

func TestCorpusBaselines(t *testing.T) {
	lib := groceryLibrary(t)
	corpus := lib.NewCorpus([][]string{
		{"potatoes", "carrots", "pickles"},
		{"potatoes", "carrots", "beer"},
		{"beer", "peanuts"},
		{"potatoes", "nutmeg"},
	})
	if corpus.NumUsers() != 4 {
		t.Fatalf("NumUsers = %d", corpus.NumUsers())
	}
	if corpus.Popularity("potatoes") != 3 {
		t.Errorf("Popularity(potatoes) = %d, want 3", corpus.Popularity("potatoes"))
	}
	if corpus.Popularity("spaceship") != 0 {
		t.Errorf("unknown action popularity != 0")
	}

	knn := corpus.KNNRecommender(0)
	if got := knn.Recommend([]string{"potatoes", "carrots"}, 3); len(got) == 0 {
		t.Error("kNN produced nothing")
	}
	pop := corpus.PopularityRecommender()
	if got := pop.Recommend([]string{"beer"}, 1); len(got) != 1 || got[0].Action != "potatoes" {
		t.Errorf("popularity top-1 = %v, want potatoes", got)
	}
	ar := corpus.AssocRulesRecommender(2)
	if got := ar.Recommend([]string{"potatoes"}, 3); len(got) == 0 {
		t.Error("assoc rules produced nothing")
	}
	mf, err := corpus.MFRecommender(MFConfig{Factors: 4, Iterations: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := mf.Recommend([]string{"potatoes", "carrots"}, 3); len(got) == 0 {
		t.Error("MF produced nothing")
	}
	bpr := corpus.BPRRecommender(BPRConfig{Factors: 4, Epochs: 5, Seed: 1})
	if bpr.Name() != "cf-bpr" {
		t.Errorf("BPR name = %q", bpr.Name())
	}
	if got := bpr.Recommend([]string{"potatoes", "carrots"}, 3); len(got) == 0 {
		t.Error("BPR produced nothing")
	}
}

func TestItemKNNRecommender(t *testing.T) {
	lib := groceryLibrary(t)
	corpus := lib.NewCorpus([][]string{
		{"potatoes", "carrots", "pickles"},
		{"potatoes", "carrots"},
		{"beer", "peanuts"},
	})
	rec := corpus.ItemKNNRecommender(0)
	if rec.Name() != "cf-item-knn" {
		t.Errorf("Name = %q", rec.Name())
	}
	got := rec.Recommend([]string{"potatoes"}, 3)
	if len(got) == 0 {
		t.Fatal("no recommendations")
	}
	// carrots co-occur with potatoes in both carts; they must rank first.
	if got[0].Action != "carrots" {
		t.Errorf("top = %v, want carrots", got[0])
	}
}

func TestHybridRecommender(t *testing.T) {
	lib := groceryLibrary(t)
	features := map[string][]string{
		"potatoes": {"vegetables"}, "carrots": {"vegetables"},
		"pickles": {"preserves"}, "nutmeg": {"spices"}, "butter": {"dairy"},
	}
	hyb, err := lib.HybridRecommender(Breadth, features, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if hyb.Name() != "hybrid-breadth-a0.50" {
		t.Errorf("Name = %q", hyb.Name())
	}
	got := hyb.Recommend([]string{"potatoes", "carrots"}, 5)
	if len(got) == 0 {
		t.Fatal("no recommendations")
	}
	for _, r := range got {
		if r.Action == "potatoes" || r.Action == "carrots" {
			t.Errorf("performed action recommended: %v", r)
		}
		if r.Score < 0 || r.Score > 1 {
			t.Errorf("blended score out of [0,1]: %v", r)
		}
	}
	if _, err := lib.HybridRecommender(Strategy("bogus"), features, 0.5); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestContentRecommender(t *testing.T) {
	lib := groceryLibrary(t)
	rec := lib.ContentRecommender(map[string][]string{
		"potatoes": {"vegetables"},
		"carrots":  {"vegetables"},
		"pickles":  {"vegetables", "preserves"},
		"nutmeg":   {"spices"},
		"beer":     {"drinks"},
		"unknown":  {"ignored"},
	})
	got := rec.Recommend([]string{"potatoes"}, 5)
	if len(got) == 0 {
		t.Fatal("content produced nothing")
	}
	// Content recommends feature-similar items: vegetables first, never the
	// featureless peanuts.
	if got[0].Action != "carrots" && got[0].Action != "pickles" {
		t.Errorf("top content rec = %v, want a vegetable", got[0])
	}
	for _, r := range got {
		if r.Action == "peanuts" {
			t.Error("featureless action recommended")
		}
	}
}

func TestBuildFromStories(t *testing.T) {
	stories := []Story{
		{Goal: "get fit", Text: "I joined a gym. I started jogging daily."},
		{Goal: "get fit", Text: "started jogging daily and then cut sugar"},
		{Goal: "save money", Text: "I canceled subscriptions. I cooked at home."},
		{Goal: "noise", Text: "nothing happened that year"},
	}
	lib, kept := BuildFromStories(stories, ExtractOptions{})
	if kept != 3 {
		t.Fatalf("kept = %d, want 3", kept)
	}
	if lib.NumGoals() != 2 {
		t.Errorf("goals = %d, want 2", lib.NumGoals())
	}
	rec := lib.MustRecommender(FocusCompleteness)
	got := rec.Recommend([]string{"start jog daily"}, 5)
	if len(got) == 0 {
		t.Fatal("no recommendations from extracted library")
	}
	// ExtractActions previews the pipeline.
	acts := ExtractActions(stories[0], ExtractOptions{})
	if len(acts) != 2 {
		t.Errorf("ExtractActions = %v", acts)
	}
	if phrases := ExtractActions(Story{Goal: "g", Text: "vague mood"}, ExtractOptions{KeepVerblessSteps: true}); len(phrases) == 0 {
		t.Error("verbless extraction kept nothing")
	}
	// Synonyms flow through the public options.
	syn := ExtractOptions{Synonyms: map[string]string{"jogging": "run"}}
	if got := ExtractActions(Story{Goal: "g", Text: "I started jogging."}, syn); len(got) != 1 || got[0] != "start run" {
		t.Errorf("synonym extraction = %v", got)
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}
