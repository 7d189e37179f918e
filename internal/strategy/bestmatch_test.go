package strategy

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"goalrec/internal/core"
	"goalrec/internal/intset"
	"goalrec/internal/testlib"
	"goalrec/internal/vectorspace"
)

// allMetrics is every Best Match distance metric.
var allMetrics = []Metric{
	Cosine, Euclidean, Manhattan, JaccardDist,
}

// referenceDistance is each metric's sparse reference distance, the one
// bmScore must reproduce bit for bit.
var referenceDistance = map[Metric]func(v, w vectorspace.Vector) float64{
	Cosine:      vectorspace.CosineDistance,
	Euclidean:   vectorspace.EuclideanDistance,
	Manhattan:   vectorspace.ManhattanDistance,
	JaccardDist: vectorspace.JaccardDistance,
}

func TestParseMetric(t *testing.T) {
	for i, name := range []string{"cosine", "euclidean", "manhattan", "jaccard"} {
		m, err := ParseMetric(name)
		if err != nil || m != allMetrics[i] || m.String() != name {
			t.Errorf("ParseMetric(%q) = %v (%d), %v; want %d", name, m, m, err, allMetrics[i])
		}
	}
	for _, name := range []string{"hamming", "", "Cosine"} {
		if _, err := ParseMetric(name); err == nil {
			t.Errorf("ParseMetric(%q) accepted an unknown metric", name)
		}
	}
	if got := Metric(len(allMetrics)).String(); got != "metric(4)" {
		t.Errorf("String of an unknown metric = %q", got)
	}
}

func TestBestMatchNames(t *testing.T) {
	lib := testlib.PaperLibrary()
	if got := NewBestMatch(lib).Name(); got != "best-match" {
		t.Errorf("Name = %q", got)
	}
	if got := NewBestMatchMetric(lib, Euclidean).Name(); got != "best-match-euclidean" {
		t.Errorf("Name = %q", got)
	}
}

// denseProfile runs the production Algorithm 3 over h — the goal tally of
// the candidate walk — and returns the goal space in ascending order with
// the profile aligned to it.
func denseProfile(bm *BestMatch, h []core.ActionID) ([]core.GoalID, []float64) {
	s := new(scratch)
	s.tally(bm.lib, h)
	t := &s.goals
	goalSpace := intset.FromUnsorted(intset.Clone(t.Goals))
	profile := make([]float64, len(goalSpace))
	for i, g := range goalSpace {
		profile[i] = float64(t.Counts[t.Slot(g)])
	}
	return goalSpace, profile
}

func TestBestMatchProfilePaperExample(t *testing.T) {
	lib := testlib.PaperLibrary()
	bm := NewBestMatch(lib)

	// H = {a2, a3} (ids 1, 2). Implementation space: p1 (a2,a3), p3 (a3),
	// p5 (a2). Per Equation 9 the profile counts (action, implementation)
	// contribution pairs per goal: g1 ← a2@p1 + a3@p1 = 2, g3 ← a3@p3 = 1,
	// g5 ← a2@p5 = 1; g2 is outside GS(H).
	goalSpace, profile := denseProfile(bm, acts(1, 2))
	if want := []core.GoalID{0, 2, 4}; !reflect.DeepEqual(goalSpace, want) {
		t.Fatalf("goal space = %v, want %v", goalSpace, want)
	}
	if want := []float64{2, 1, 1}; !reflect.DeepEqual(profile, want) {
		t.Errorf("profile = %v, want %v", profile, want)
	}
}

func TestBestMatchProfileCountsDuplicateContributions(t *testing.T) {
	// A goal with two implementations containing the same action counts
	// twice (the vector representation of Equation 8, not the boolean one
	// of Equation 7).
	var b core.Builder
	if _, err := b.Add(0, acts(0, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Add(0, acts(0, 2)); err != nil {
		t.Fatal(err)
	}
	lib := b.Build()
	if _, profile := denseProfile(NewBestMatch(lib), acts(0)); !reflect.DeepEqual(profile, []float64{2}) {
		t.Errorf("profile = %v, want [2] (two implementations)", profile)
	}
}

func TestBestMatchRankingPaperExample(t *testing.T) {
	lib := testlib.PaperLibrary()
	bm := NewBestMatch(lib)

	// H = {a2, a3}: profile (g1:2, g3:1, g5:1).
	// Candidates (co-occurring with H): a1 (g1:1, g3:1, g5:1 within GS(H)),
	// a5 (g3:1), a6 (g5:1). a4 never co-occurs with H, so it is not ranked.
	// Cosine distance: a1 ≈ 0.0572, a5 = a6 ≈ 0.5918.
	got := bm.Recommend(acts(1, 2), 10)
	wantOrder := acts(0, 4, 5)
	if !reflect.DeepEqual(actionsOf(got), wantOrder) {
		t.Fatalf("Recommend order = %v, want %v", actionsOf(got), wantOrder)
	}
	// Section 5.3's closing point: the action whose goal contributions align
	// with the profile (a1) is strictly closer than one serving a goal the
	// user barely touched (a5 serves only g3).
	if got[0].Score <= got[1].Score {
		t.Errorf("a1 should be strictly closer than a5: %v vs %v", got[0].Score, got[1].Score)
	}
	// a5 and a6 are symmetric; tie must break by id.
	if got[1].Action != 4 || got[2].Action != 5 {
		t.Errorf("tie break wrong: %v", got)
	}
	if math.Abs(got[1].Score-got[2].Score) > 1e-12 {
		t.Errorf("a5 and a6 should tie: %v vs %v", got[1].Score, got[2].Score)
	}
}

func TestBestMatchMetricsDisagreeButRankZeroLast(t *testing.T) {
	lib := testlib.PaperLibrary()
	for _, m := range allMetrics {
		bm := NewBestMatchMetric(lib, m)
		got := bm.Recommend(acts(1, 2), 10)
		if len(got) != 3 {
			t.Fatalf("%v: got %d candidates", m, len(got))
		}
		// a1 matches the profile best; every metric should agree here.
		if got[0].Action != 0 {
			t.Errorf("%v ranked %d first, want a1", m, got[0].Action)
		}
	}
}

func TestBestMatchEmptyCases(t *testing.T) {
	lib := testlib.PaperLibrary()
	bm := NewBestMatch(lib)
	if got := bm.Recommend(nil, 10); got != nil {
		t.Errorf("empty activity produced %v", got)
	}
	if got := bm.Recommend(acts(0), 0); got != nil {
		t.Errorf("k=0 produced %v", got)
	}
	if goalSpace, profile := denseProfile(bm, nil); len(goalSpace) != 0 || len(profile) != 0 {
		t.Errorf("empty activity: goal space %v, profile %v", goalSpace, profile)
	}
}

// sparseProfile is the reference Algorithm 3 on sparse vectors: the
// aggregated goal-contribution vector of every action of h.
func sparseProfile(lib *core.Library, h []core.ActionID) vectorspace.Vector {
	counts := make(map[int32]int)
	for _, a := range h {
		for _, p := range lib.ImplsOfAction(a) {
			counts[int32(lib.Goal(p))]++
		}
	}
	return vectorspace.FromCounts(counts)
}

// sparseActionVector is the reference Equation 8: for every goal of the
// sorted goalSpace, the number of implementations through which a
// contributes to it.
func sparseActionVector(lib *core.Library, a core.ActionID, goalSpace []core.GoalID) vectorspace.Vector {
	counts := make(map[int32]int)
	for _, p := range lib.ImplsOfAction(a) {
		if g := lib.Goal(p); intset.Contains(goalSpace, g) {
			counts[int32(g)]++
		}
	}
	return vectorspace.FromCounts(counts)
}

func TestBestMatchFastPathMatchesSparseReference(t *testing.T) {
	// Every metric through the dense goal-major pass must equal the
	// straightforward sparse implementation (sparseProfile +
	// sparseActionVector + referenceDistance) on random libraries exactly:
	// bmScore finishes from integer sums, so not even the scores differ.
	cfg := &quick.Config{
		MaxCount: 80,
		Values: func(v []reflect.Value, r *rand.Rand) {
			v[0] = reflect.ValueOf(testlib.RandomLibrary(r, 1+r.Intn(80), 25, 12, 6))
			v[1] = reflect.ValueOf(testlib.RandomActivity(r, 25, 5))
		},
	}
	for _, m := range allMetrics {
		f := func(lib *core.Library, h []core.ActionID) bool {
			hs := intset.FromUnsorted(intset.Clone(h))
			goalSpace := lib.GoalSpace(hs)
			profile := sparseProfile(lib, hs)
			var ref []ScoredAction
			for _, a := range lib.Candidates(hs) {
				d := referenceDistance[m](profile, sparseActionVector(lib, a, goalSpace))
				ref = append(ref, ScoredAction{Action: a, Score: -d})
			}
			ref = TopK(ref, -1)
			if got := NewBestMatchMetric(lib, m).Recommend(h, -1); !(len(got) == 0 && len(ref) == 0) && !reflect.DeepEqual(got, ref) {
				t.Logf("%v:\ngot  %v\nwant %v", m, got, ref)
				return false
			}
			return true
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Errorf("%v: %v", m, err)
		}
	}
}

// TestBestMatchScoringPathsAgree drives the Best Match rows of the source
// table — every metric from scratch, through the view, and through the shard
// merges — over many small random libraries. Every source accumulates
// integer-valued sums in float64, so even the scores must match the oracle
// exactly, not just within float noise.
func TestBestMatchScoringPathsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 150; trial++ {
		lib := testlib.RandomLibrary(r, 1+r.Intn(120), 30, 15, 7)
		checkEverySource(t, lib, testlib.RandomActivity(r, 30, 6), "best-match")
	}
}

// TestBestMatchGoalMajorScratchReuse runs many consecutive goal-major
// queries through one recommender per metric: stale accumulator residue
// between queries (or between goals within a query) would diverge from the
// oracle.
func TestBestMatchGoalMajorScratchReuse(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	lib := testlib.RandomLibrary(r, 150, 30, 12, 7)
	o := newOracle(lib)
	for _, m := range allMetrics {
		gm := NewBestMatchMetric(lib, m)
		for i := 0; i < 200; i++ {
			h := intset.FromUnsorted(testlib.RandomActivity(r, 30, 6))
			got := gm.Recommend(h, 8)
			want := o.oracleBestMatch(h, m, 8)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v query %d diverged from the oracle:\ngot  %v\nwant %v", m, i, got, want)
			}
		}
	}
}

func TestBestMatchInvariants(t *testing.T) {
	strategyInvariants(t, func(l *core.Library) Recommender { return NewBestMatch(l) })
}

func TestBestMatchEuclideanInvariants(t *testing.T) {
	strategyInvariants(t, func(l *core.Library) Recommender {
		return NewBestMatchMetric(l, Euclidean)
	})
}
