package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"goalrec/internal/dataset"
	"goalrec/internal/eval"
)

// testConfig is a tiny but non-degenerate configuration shared by the
// package tests.
func testConfig() Config {
	return Config{
		Scale:         0.15,
		K:             10,
		KeepFrac:      0.3,
		MaxUsers:      80,
		Seed:          7,
		ALSFactors:    8,
		ALSIterations: 3,
	}
}

// Environments are deterministic and read-only after construction, so the
// package tests share one instance of each.
var (
	foodOnce sync.Once
	foodE    *Env
	foodErr  error
	lifeOnce sync.Once
	lifeE    *Env
	lifeErr  error
)

func foodEnv(t *testing.T) *Env {
	t.Helper()
	foodOnce.Do(func() { foodE, foodErr = NewFoodMartEnv(testConfig()) })
	if foodErr != nil {
		t.Fatal(foodErr)
	}
	return foodE
}

func lifeEnv(t *testing.T) *Env {
	t.Helper()
	lifeOnce.Do(func() { lifeE, lifeErr = NewFortyThreeEnv(testConfig()) })
	if lifeErr != nil {
		t.Fatal(lifeErr)
	}
	return lifeE
}

func TestEnvSetup(t *testing.T) {
	env := foodEnv(t)
	if len(env.Inputs) == 0 || len(env.Inputs) > testConfig().MaxUsers {
		t.Fatalf("inputs = %d", len(env.Inputs))
	}
	// Foodmart has features, so content must be present.
	wantMethods := []string{"best-match", "focus-cmp", "focus-cl", "breadth",
		"content", "cf-knn", "cf-mf", "popularity", "assoc-rules"}
	for _, m := range wantMethods {
		if _, ok := env.Methods[m]; !ok {
			t.Errorf("method %s missing", m)
		}
		if lists := env.Lists[m]; len(lists) != len(env.Inputs) {
			t.Errorf("method %s has %d lists, want %d", m, len(env.Lists[m]), len(env.Inputs))
		}
	}
	if len(env.GoalMethods()) != 4 {
		t.Errorf("GoalMethods = %v", env.GoalMethods())
	}
	if got := env.BaselineMethods()[0]; got != "content" {
		t.Errorf("first baseline = %s, want content", got)
	}
}

func TestEnv43ThingsHasNoContent(t *testing.T) {
	env := lifeEnv(t)
	if _, ok := env.Methods["content"]; ok {
		t.Error("43things should not have a content method")
	}
	if env.FeatureSimilarity() != nil {
		t.Error("43things should have no feature similarity")
	}
	// Users carry explicit goals.
	if g := env.GoalsOf(0); len(g) == 0 {
		t.Error("first user has no declared goals")
	}
}

func TestTablesProduceRows(t *testing.T) {
	env := foodEnv(t)
	for _, tab := range []*Table{
		Table2(env), Table3(env), Table4(env), Table5(env), Table6(env),
		Figure4(env), Figure5(env), Figure6(env),
		BeyondAccuracy(env), RankingAccuracy(env),
		CompletenessByGoalCount(env), SignificanceVsBaselines(env),
		TemporalSplit(env), MethodLatency(env),
		AblationBreadth(env), AblationBestMatch(env), AblationHybrid(env),
	} {
		if len(tab.Rows) == 0 {
			t.Errorf("%s has no rows", tab.ID)
		}
		var buf bytes.Buffer
		if err := tab.Render(&buf); err != nil {
			t.Errorf("%s render: %v", tab.ID, err)
		}
		if !strings.Contains(buf.String(), tab.ID) {
			t.Errorf("%s render missing id", tab.ID)
		}
		buf.Reset()
		if err := tab.Markdown(&buf); err != nil {
			t.Errorf("%s markdown: %v", tab.ID, err)
		}
		if !strings.Contains(buf.String(), "|") {
			t.Errorf("%s markdown missing pipes", tab.ID)
		}
	}
}

func TestTable2ShapeLowOverlap(t *testing.T) {
	env := foodEnv(t)
	// The paper's headline finding: goal-based lists overlap the standard
	// methods' lists far less than they overlap each other. At the reduced
	// test scale absolute numbers are inflated (a smaller action space
	// forces collisions), so the assertion is relative: for every goal
	// method, the mean overlap with the standard methods stays below the
	// mean overlap with its goal-based siblings.
	k := env.Cfg.K
	for _, gm := range env.GoalMethods() {
		var baseSum float64
		for _, bm := range env.BaselineMethods() {
			baseSum += eval.OverlapAtK(env.Lists[gm], env.Lists[bm], k)
		}
		baseMean := baseSum / float64(len(env.BaselineMethods()))
		var goalSum float64
		n := 0
		for _, other := range env.GoalMethods() {
			if other == gm {
				continue
			}
			goalSum += eval.OverlapAtK(env.Lists[gm], env.Lists[other], k)
			n++
		}
		goalMean := goalSum / float64(n)
		if baseMean >= goalMean {
			t.Errorf("%s: baseline overlap %.3f >= goal-sibling overlap %.3f", gm, baseMean, goalMean)
		}
	}
}

func TestTable3ShapeGoalMethodsUncorrelated(t *testing.T) {
	env := lifeEnv(t)
	tab := Table3(env)
	vals := map[string]float64{}
	for _, row := range tab.Rows {
		vals[row[0]] = parseF(t, row[1])
	}
	// The popularity recommender follows popularity by construction; every
	// goal-based method must correlate with popularity distinctly less.
	if vals["popularity"] < 0.3 {
		t.Errorf("popularity correlation = %v, want clearly positive", vals["popularity"])
	}
	for _, gm := range env.GoalMethods() {
		if vals[gm] > vals["popularity"]-0.1 {
			t.Errorf("%s correlation %v too close to popularity %v", gm, vals[gm], vals["popularity"])
		}
	}
}

func TestTable4ShapeGoalMethodsWin(t *testing.T) {
	env := lifeEnv(t)
	tab := Table4(env)
	avg := map[string]float64{}
	for _, row := range tab.Rows {
		avg[row[0]] = parseF(t, row[1])
	}
	bestGoal := 0.0
	for _, gm := range env.GoalMethods() {
		if avg[gm] > bestGoal {
			bestGoal = avg[gm]
		}
	}
	for _, bm := range env.BaselineMethods() {
		if avg[bm] > bestGoal {
			t.Errorf("baseline %s completeness %v beats best goal-based %v", bm, avg[bm], bestGoal)
		}
	}
}

func TestTable6ShapeDiagonalOne(t *testing.T) {
	env := lifeEnv(t)
	tab := Table6(env)
	for i, row := range tab.Rows {
		v := parseF(t, row[i+1])
		if v < 0.999 {
			t.Errorf("self overlap of %s = %v, want 1", row[0], v)
		}
	}
}

func TestBeyondAccuracyShape(t *testing.T) {
	env := foodEnv(t)
	tab := BeyondAccuracy(env)
	row := map[string][]string{}
	for _, r := range tab.Rows {
		row[r[0]] = r
	}
	// Content-based lists must be the least diverse (its defining drawback,
	// per Section 1); every goal-based method must beat it.
	contentDiv := parseF(t, row["content"][1])
	for _, gm := range env.GoalMethods() {
		if parseF(t, row[gm][1]) <= contentDiv {
			t.Errorf("%s diversity %s not above content %v", gm, row[gm][1], contentDiv)
		}
	}
	// Popularity concentrates maximally: its Gini and unexpectedness-vs-self
	// are extreme.
	if parseF(t, row["popularity"][5]) != 0 {
		t.Errorf("popularity unexpectedness vs itself = %s, want 0", row["popularity"][5])
	}
	for _, gm := range env.GoalMethods() {
		if parseF(t, row[gm][5]) <= 0.5 {
			t.Errorf("%s unexpectedness vs popularity = %s, want > 0.5", gm, row[gm][5])
		}
	}
}

func TestRankingAccuracyShape(t *testing.T) {
	env := lifeEnv(t)
	tab := RankingAccuracy(env)
	rec := map[string]float64{}
	for _, r := range tab.Rows {
		rec[r[0]] = parseF(t, r[2]) // recall column
	}
	bestBaseline := 0.0
	for _, bm := range env.BaselineMethods() {
		if rec[bm] > bestBaseline {
			bestBaseline = rec[bm]
		}
	}
	// On the low-connectivity dataset, every goal-based method must beat
	// every baseline on recall of the hidden actions.
	for _, gm := range env.GoalMethods() {
		if rec[gm] <= bestBaseline {
			t.Errorf("%s recall %v not above best baseline %v", gm, rec[gm], bestBaseline)
		}
	}
}

func TestFigure4bCustomerProtocol(t *testing.T) {
	food := foodEnv(t)
	tab := Figure4b(food)
	if len(tab.Rows) < 4 {
		t.Fatalf("F4b rows = %d (%v)", len(tab.Rows), tab.Rows)
	}
	for _, row := range tab.Rows {
		top5, top10 := parseF(t, row[1]), parseF(t, row[2])
		if top5 < 0 || top5 > 1 || top10 < 0 || top10 > 1 {
			t.Errorf("%s TPR out of range: %v", row[0], row)
		}
	}
	// Datasets without linkage degrade to a placeholder.
	life := lifeEnv(t)
	if tab := Figure4b(life); len(tab.Rows) != 1 {
		t.Errorf("unlinked dataset rows = %d, want 1 placeholder", len(tab.Rows))
	}
}

func TestCompletenessByGoalCount(t *testing.T) {
	life := lifeEnv(t)
	tab := CompletenessByGoalCount(life)
	if len(tab.Rows) != len(life.GoalMethods()) {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Foodmart users carry no goals; the table degrades gracefully.
	food := foodEnv(t)
	if tab := CompletenessByGoalCount(food); len(tab.Rows) != 1 {
		t.Errorf("goal-less dataset rows = %d, want 1 placeholder", len(tab.Rows))
	}
}

func TestSignificanceVsBaselines(t *testing.T) {
	life := lifeEnv(t)
	tab := SignificanceVsBaselines(life)
	if len(tab.Rows) != len(life.GoalMethods()) {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// On 43things the goal-based completeness win is large; every interval
	// should be strictly positive.
	for _, row := range tab.Rows {
		if row[5] != "yes" {
			t.Errorf("%s advantage not significant: %v", row[0], row)
		}
		lo, hi := parseF(t, row[3]), parseF(t, row[4])
		if lo > hi {
			t.Errorf("inverted interval: %v", row)
		}
	}
}

func TestTemporalSplitShape(t *testing.T) {
	env := lifeEnv(t)
	tab := TemporalSplit(env)
	if len(tab.Rows) != len(env.GoalMethods()) {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		for _, cell := range row[1:] {
			v := parseF(t, cell)
			if v < 0 || v > 1 {
				t.Errorf("%s: value out of range in %v", row[0], row)
			}
		}
		// Temporal completeness should stay in the same ballpark as the
		// shuffled protocol (goal methods do not depend on order).
		shuf, temp := parseF(t, row[3]), parseF(t, row[4])
		if temp < shuf/2 {
			t.Errorf("%s: temporal completeness collapsed: %v vs %v", row[0], temp, shuf)
		}
	}
}

func TestAblationHybridShape(t *testing.T) {
	env := foodEnv(t)
	tab := AblationHybrid(env)
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// α = 1 must coincide with the pure goal-based breadth lists.
	if got := parseF(t, tab.Rows[0][4]); got < 0.999 {
		t.Errorf("alpha=1 overlap vs pure goal = %v, want 1", got)
	}
	// Lower α must not increase the overlap with the pure goal lists.
	prev := 2.0
	for _, r := range tab.Rows {
		v := parseF(t, r[4])
		if v > prev+1e-9 {
			t.Errorf("overlap vs pure goal not monotone: %v after %v", v, prev)
		}
		prev = v
	}
	// The 43things environment has no features; the table degrades
	// gracefully.
	life := lifeEnv(t)
	if tab := AblationHybrid(life); len(tab.Rows) != 1 {
		t.Errorf("featureless hybrid table rows = %d, want 1 placeholder", len(tab.Rows))
	}
}

func TestEnvGeneralizesToCurriculum(t *testing.T) {
	// The experiment pipeline is dataset-agnostic: the curriculum scenario
	// (not part of the paper's evaluation) must flow through unchanged.
	ds, err := dataset.GenerateCurriculum(dataset.CurriculumConfig{Seed: 5, Students: 60})
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(Config{K: 10, KeepFrac: 0.5, Seed: 5, ALSFactors: 4, ALSIterations: 2}, ds)
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range []*Table{Table4(env), Figure4(env), CompletenessByGoalCount(env)} {
		if len(tab.Rows) == 0 {
			t.Errorf("%s empty on curriculum", tab.ID)
		}
	}
	// Students declare goals, so the explicit-goal completeness path runs.
	tri := Table4(env)
	if len(tri.Rows) == 0 {
		t.Fatal("no completeness rows")
	}
}

func TestFigure7Scalability(t *testing.T) {
	pts := Scalability(ScalabilityConfig{
		Sizes: []int{300, 1200}, Actions: 300, Queries: 10, Seed: 3,
	})
	if len(pts) != 8 {
		t.Fatalf("got %d points, want 8 (2 sizes × 4 strategies)", len(pts))
	}
	byMethod := map[string][]ScalabilityPoint{}
	for _, p := range pts {
		if p.MeanLatency <= 0 {
			t.Errorf("non-positive latency: %+v", p)
		}
		byMethod[p.Method] = append(byMethod[p.Method], p)
	}
	if len(byMethod) != 4 {
		t.Errorf("methods = %v", byMethod)
	}
	// Connectivity grows with size when the action space is fixed.
	for m, ps := range byMethod {
		if ps[0].Connectivity >= ps[1].Connectivity {
			t.Errorf("%s: connectivity did not grow: %v", m, ps)
		}
	}
	tab := Figure7(ScalabilityConfig{Sizes: []int{200}, Actions: 200, Queries: 5, Seed: 4})
	if len(tab.Rows) != 4 {
		t.Errorf("Figure7 rows = %d", len(tab.Rows))
	}
	sweep := ConnectivitySweep(300, []int{100, 400}, 5)
	if len(sweep.Rows) != 8 {
		t.Errorf("ConnectivitySweep rows = %d", len(sweep.Rows))
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	var v float64
	if _, err := fmtSscan(s, &v); err != nil {
		t.Fatalf("cannot parse %q: %v", s, err)
	}
	return v
}

// fmtSscan is split out so the test file keeps a single fmt dependency
// point.
func fmtSscan(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}
