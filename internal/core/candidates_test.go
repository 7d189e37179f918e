package core

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"goalrec/internal/intset"
)

// oracleAppendCandidates is the collector this package shipped before the
// bitset: dense bool stamps with H pre-stamped, first-sight appends, then a
// sort of the distinct survivors. Kept as the reference AppendCandidates
// must reproduce byte for byte.
func oracleAppendCandidates(l *Library, dst []ActionID, sortedH []ActionID) []ActionID {
	base := len(dst)
	seen := make([]bool, l.numActions)
	for _, a := range sortedH {
		if a >= 0 && int(a) < len(seen) {
			seen[a] = true
		}
	}
	for _, a := range sortedH {
		for _, p := range l.ImplsOfAction(a) {
			for _, c := range l.implActions(p) {
				if !seen[c] {
					seen[c] = true
					dst = append(dst, c)
				}
			}
		}
	}
	slices.Sort(dst[base:])
	return dst
}

// collectorTally is the one tally checkCollector reuses, across libraries of
// every size, as a pooled Best Match scratch does; collectorPrev holds the
// goals of its previous query, and collectorQueries counts the queries.
var (
	collectorTally   GoalTally
	collectorPrev    []GoalID
	collectorQueries int
)

// checkCollector runs AppendCandidates on sc and compares it with the
// oracle, and its goal tally with GoalSpace and the per-goal posting counts
// of H; sc must come back all zero. Every third query resets the tally with
// a hint below its posting count (a quarter of it) and every third with 0,
// so the table grows during the walk. A goal of the previous query that
// this one did not tally must not be found: ShardVectors reads −1 as
// "outside the goal space".
func checkCollector(t *testing.T, l *Library, sc *CandidateScratch, h []ActionID) {
	t.Helper()
	sortedH := intset.FromUnsorted(intset.Clone(h))
	prefix := []ActionID{-7} // dst's existing content must survive
	want := oracleAppendCandidates(l, slices.Clone(prefix), sortedH)
	wantCount := map[GoalID]int32{}
	postings := 0
	for _, a := range sortedH {
		for _, p := range l.ImplsOfAction(a) {
			wantCount[l.Goal(p)]++
			postings++
		}
	}
	tally := &collectorTally
	collectorQueries++
	tally.Reset([...]int{postings, postings / 4, 0}[collectorQueries%3])
	if got := l.AppendCandidates(slices.Clone(prefix), sc, sortedH, tally); !slices.Equal(got, want) {
		t.Fatalf("AppendCandidates(h=%v) = %v, want %v", sortedH, got, want)
	}
	if got := intset.FromUnsorted(intset.Clone(tally.Goals)); !slices.Equal(got, l.GoalSpace(sortedH)) {
		t.Fatalf("AppendCandidates(h=%v) tallied goals %v, want %v", sortedH, got, l.GoalSpace(sortedH))
	}
	for i, g := range tally.Goals {
		if tally.Slot(g) != i || tally.Counts[i] != wantCount[g] {
			t.Fatalf("AppendCandidates(h=%v): goal %d at slot %d/%d counts %d, want %d", sortedH, g, tally.Slot(g), i, tally.Counts[i], wantCount[g])
		}
	}
	for _, g := range collectorPrev {
		if _, ok := wantCount[g]; !ok && tally.Slot(g) != -1 {
			t.Fatalf("AppendCandidates(h=%v): goal %d of the previous query, not tallied by this one, is at slot %d", sortedH, g, tally.Slot(g))
		}
	}
	collectorPrev = append(collectorPrev[:0], tally.Goals...)
	for w, word := range sc.bits {
		if word != 0 {
			t.Fatalf("scratch word %d = %#x after the call (h=%v)", w, word, sortedH)
		}
	}
}

func randomActivity(r *rand.Rand, actionSpace, n int) []ActionID {
	h := make([]ActionID, n)
	for i := range h {
		h[i] = ActionID(r.Intn(actionSpace))
	}
	return h
}

// TestAppendCandidatesMatchesStampAndSort: on the libraries the benchmark
// serves (seeds 1 and 2), 10 000 random five-action activities collect to the
// bytes the stamp-and-sort collector produced.
func TestAppendCandidatesMatchesStampAndSort(t *testing.T) {
	impls, queries := benchShapeImpls, 10_000
	if testing.Short() || raceEnabled {
		impls, queries = impls/10, queries/10
	}
	for _, seed := range []uint64{1, 2} {
		lib, _, err := ReadJSONLines(bytes.NewReader(benchShapeJSONL(seed, impls, benchShapeActions)))
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(int64(seed)))
		var sc CandidateScratch
		for q := 0; q < queries; q++ {
			checkCollector(t, lib, &sc, randomActivity(r, lib.NumActions(), 5))
		}
	}
}

// TestCandidateScratchAcrossLibraries shares one scratch between a small and
// a large action space (small first, so the bitset has to grow; then small
// again, so a stale high word would show), over heap and mapped postings,
// with ids in H the library does not know.
func TestCandidateScratchAcrossLibraries(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	small := randomLibrary(r, 40, 30, 6)
	large := randomLibrary(r, 900, 700, 40)
	mapped := snapshotRoundTrip(t, randomLibrary(r, 900, 700, 5), nil, SnapshotOptions{}).Library()
	var sc CandidateScratch
	for round := 0; round < 50; round++ {
		for _, lib := range []*Library{small, large, mapped, small} {
			h := randomActivity(r, lib.NumActions()+3, r.Intn(7))
			if round%5 == 0 {
				h = append(h, -1)
			}
			checkCollector(t, lib, &sc, h)
		}
	}
	checkCollector(t, &Library{}, &sc, []ActionID{0, 4})
}

// TestCandidateCollectorFallback lowers the sweep limit so ordinary libraries
// take the append-and-sort path a four-million-action library would.
func TestCandidateCollectorFallback(t *testing.T) {
	defer func(limit int) { candidateStampLimit = limit }(candidateStampLimit)
	candidateStampLimit = 8
	r := rand.New(rand.NewSource(9))
	var sc CandidateScratch
	for trial := 0; trial < 40; trial++ {
		lib := randomLibrary(r, 1+r.Intn(300), 9+r.Intn(60), 8)
		for q := 0; q < 10; q++ {
			checkCollector(t, lib, &sc, randomActivity(r, lib.NumActions()+2, r.Intn(6)))
		}
	}
	if sc.bits != nil {
		t.Fatal("the fallback path grew the bitset")
	}
}

var benchCandSink []ActionID

// BenchmarkAppendCandidates times candidate generation alone on the
// benchmark's library shape, five uniform actions per activity as in the
// bestmatch_kernel workload.
func BenchmarkAppendCandidates(b *testing.B) {
	impls := benchShapeImpls
	if testing.Short() {
		impls /= 10
	}
	lib, _, err := ReadJSONLines(bytes.NewReader(benchShapeJSONL(1, impls, benchShapeActions)))
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	hs := make([][]ActionID, 256)
	for i := range hs {
		hs[i] = intset.FromUnsorted(randomActivity(r, lib.NumActions(), 5))
	}
	var sc CandidateScratch
	var dst []ActionID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = lib.AppendCandidates(dst[:0], &sc, hs[i%len(hs)], nil)
	}
	benchCandSink = dst
}
