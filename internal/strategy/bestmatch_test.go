package strategy

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"goalrec/internal/core"
	"goalrec/internal/intset"
	"goalrec/internal/testlib"
	"goalrec/internal/vectorspace"
)

func TestBestMatchNames(t *testing.T) {
	lib := testlib.PaperLibrary()
	if got := NewBestMatch(lib).Name(); got != "best-match" {
		t.Errorf("Name = %q", got)
	}
	if got := NewBestMatchMetric(lib, vectorspace.Euclidean).Name(); got != "best-match-euclidean" {
		t.Errorf("Name = %q", got)
	}
}

func TestBestMatchProfilePaperExample(t *testing.T) {
	lib := testlib.PaperLibrary()
	bm := NewBestMatch(lib)

	// H = {a2, a3} (ids 1, 2). Implementation space: p1 (a2,a3), p3 (a3),
	// p5 (a2). Per Equation 9 the profile counts (action, implementation)
	// contribution pairs per goal: g1 ← a2@p1 + a3@p1 = 2, g3 ← a3@p3 = 1,
	// g5 ← a2@p5 = 1.
	profile := bm.Profile(acts(1, 2))
	if got := profile.At(0); got != 2 {
		t.Errorf("profile[g1] = %v, want 2", got)
	}
	if got := profile.At(2); got != 1 {
		t.Errorf("profile[g3] = %v, want 1", got)
	}
	if got := profile.At(4); got != 1 {
		t.Errorf("profile[g5] = %v, want 1", got)
	}
	if got := profile.At(1); got != 0 {
		t.Errorf("profile[g2] = %v, want 0", got)
	}
	if profile.Len() != 3 {
		t.Errorf("profile has %d coordinates, want 3", profile.Len())
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
	profile := NewBestMatch(lib).Profile(acts(0))
	if got := profile.At(0); got != 2 {
		t.Errorf("profile[g0] = %v, want 2 (two implementations)", got)
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
	for _, m := range []vectorspace.Metric{
		vectorspace.Cosine, vectorspace.Euclidean, vectorspace.Manhattan, vectorspace.JaccardDist,
	} {
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
	if p := bm.Profile(nil); !p.IsZero() {
		t.Errorf("profile of empty activity = %v non-zero coords", p.Len())
	}
}

func TestBestMatchFastPathMatchesSparseReference(t *testing.T) {
	// The pooled dense cosine path must agree with the straightforward
	// sparse implementation (Profile + actionVector + metric.Distance) on
	// random libraries, bit-for-bit on the ordering and within float noise
	// on the scores.
	cfg := &quick.Config{
		MaxCount: 80,
		Values: func(v []reflect.Value, r *rand.Rand) {
			v[0] = reflect.ValueOf(testlib.RandomLibrary(r, 1+r.Intn(80), 25, 12, 6))
			v[1] = reflect.ValueOf(testlib.RandomActivity(r, 25, 5))
		},
	}
	f := func(lib *core.Library, h []core.ActionID) bool {
		bm := NewBestMatch(lib)
		fast := bm.Recommend(h, -1)

		// Sparse reference.
		hs := intset.FromUnsorted(intset.Clone(h))
		goalSpace := lib.GoalSpace(hs)
		profile := bm.Profile(hs)
		var ref []ScoredAction
		for _, a := range lib.Candidates(hs) {
			d := vectorspace.Cosine.Distance(profile, bm.actionVector(a, goalSpace))
			ref = append(ref, ScoredAction{Action: a, Score: -d})
		}
		ref = TopK(ref, -1)

		if len(fast) != len(ref) {
			return false
		}
		for i := range fast {
			if fast[i].Action != ref[i].Action {
				return false
			}
			if math.Abs(fast[i].Score-ref[i].Score) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestBestMatchScoringPathsAgree drives the Best Match rows of the source
// table — the cost model's pick and each forced cosine path
// (candidate-major serial and sharded, goal-major), the view through each,
// and the shard merges — over many small random libraries. Both paths
// accumulate integer-valued sums in float64, so even the scores must match
// the oracle exactly, not just within float noise.
func TestBestMatchScoringPathsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 150; trial++ {
		lib := testlib.RandomLibrary(r, 1+r.Intn(120), 30, 15, 7)
		checkEverySource(t, lib, testlib.RandomActivity(r, 30, 6), "best-match")
	}
}

// TestBestMatchShardedDeterministic forces intra-query sharding (worker pool
// above 1 even on a single-core machine, shard threshold 1) and checks the
// result is identical to the serial path. Run under -race this also proves
// the scratch really is read-only during sharded scoring.
func TestBestMatchShardedDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		lib := testlib.RandomLibrary(r, 1+r.Intn(150), 40, 15, 7)
		h := testlib.RandomActivity(r, 40, 6)

		serial := NewBestMatch(lib)
		serial.mode = bmCandidateMajor
		serial.maxWorkers = 1

		sharded := NewBestMatch(lib)
		sharded.mode = bmCandidateMajor
		sharded.maxWorkers = 4
		sharded.shardMin = 1

		want := serial.Recommend(h, -1)
		for rep := 0; rep < 3; rep++ {
			if got := sharded.Recommend(h, -1); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d rep %d: sharded ranking diverged:\ngot  %v\nwant %v",
					trial, rep, got, want)
			}
		}
	}
}

// TestBestMatchShardedConcurrentQueries hammers one sharded recommender from
// several goroutines at once — under -race this covers pool handoff plus
// concurrent sharded scoring.
func TestBestMatchShardedConcurrentQueries(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	lib := testlib.RandomLibrary(r, 200, 40, 15, 7)
	bm := NewBestMatch(lib)
	bm.maxWorkers = 4
	bm.shardMin = 1

	activities := make([][]core.ActionID, 16)
	want := make([][]ScoredAction, len(activities))
	for i := range activities {
		activities[i] = testlib.RandomActivity(r, 40, 6)
		want[i] = bm.Recommend(activities[i], 10)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				j := (seed + i) % len(activities)
				if got := bm.Recommend(activities[j], 10); !reflect.DeepEqual(got, want[j]) {
					t.Errorf("concurrent query %d diverged", j)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestBestMatchGoalMajorScratchReuse runs many consecutive goal-major
// queries through one recommender: stale dot/sumsq/cnt residue between
// queries (or between goals within a query) would diverge from the oracle.
func TestBestMatchGoalMajorScratchReuse(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	lib := testlib.RandomLibrary(r, 150, 30, 12, 7)
	gm := NewBestMatch(lib)
	gm.mode = bmGoalMajor
	o := newOracle(lib)
	for i := 0; i < 200; i++ {
		h := intset.FromUnsorted(testlib.RandomActivity(r, 30, 6))
		got := gm.Recommend(h, 8)
		want := o.oracleBestMatch(h, vectorspace.Cosine, 8)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d diverged from the oracle:\ngot  %v\nwant %v", i, got, want)
		}
	}
}

func TestBestMatchInvariants(t *testing.T) {
	strategyInvariants(t, func(l *core.Library) Recommender { return NewBestMatch(l) })
}

func TestBestMatchEuclideanInvariants(t *testing.T) {
	strategyInvariants(t, func(l *core.Library) Recommender {
		return NewBestMatchMetric(l, vectorspace.Euclidean)
	})
}
