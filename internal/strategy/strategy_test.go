package strategy

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"goalrec/internal/core"
)

func scoredPool(r *rand.Rand, n, distinctScores int) []ScoredAction {
	// Duplicated scores force the id tie-break on both TopK paths.
	out := make([]ScoredAction, n)
	perm := r.Perm(n)
	for i := range out {
		out[i] = ScoredAction{
			Action: core.ActionID(perm[i]),
			Score:  float64(r.Intn(distinctScores)),
		}
	}
	return out
}

// sortRef is the reference ranking: the plain full sort the heap path must
// reproduce bit-for-bit.
func sortRef(scored []ScoredAction, k int) []ScoredAction {
	ref := append([]ScoredAction(nil), scored...)
	sort.Slice(ref, func(i, j int) bool { return ranksBefore(ref[i], ref[j]) })
	if k >= 0 && len(ref) > k {
		ref = ref[:k]
	}
	return ref
}

func TestTopKEdgeCases(t *testing.T) {
	pool := []ScoredAction{{Action: 2, Score: 1}, {Action: 0, Score: 3}, {Action: 1, Score: 3}}

	if got := TopK(nil, 5); got != nil {
		t.Errorf("TopK(nil) = %v, want nil", got)
	}
	if got := TopK(append([]ScoredAction(nil), pool...), 0); got != nil {
		t.Errorf("k=0 = %v, want nil", got)
	}
	// Negative k returns the full ranked pool.
	want := []ScoredAction{{Action: 0, Score: 3}, {Action: 1, Score: 3}, {Action: 2, Score: 1}}
	if got := TopK(append([]ScoredAction(nil), pool...), -1); !reflect.DeepEqual(got, want) {
		t.Errorf("k=-1 = %v, want %v", got, want)
	}
	// k beyond the pool returns everything, still ranked.
	if got := TopK(append([]ScoredAction(nil), pool...), 10); !reflect.DeepEqual(got, want) {
		t.Errorf("k=10 = %v, want %v", got, want)
	}
	// Score ties break by ascending action id.
	if got := TopK(append([]ScoredAction(nil), pool...), 2); !reflect.DeepEqual(got, want[:2]) {
		t.Errorf("tie break = %v, want %v", got, want[:2])
	}
}

// checkSelection compares the selector against the sort reference and pins
// the ownership contract: exact-size results.
func checkSelection(t *testing.T, pool []ScoredAction, k int) {
	t.Helper()
	want := sortRef(pool, k)
	if len(want) == 0 {
		want = nil
	}
	got := TopK(append([]ScoredAction(nil), pool...), k)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TopK (n=%d, k=%d) diverged from sort:\ngot  %v\nwant %v", len(pool), k, got, want)
	}
	if cap(got) != len(got) {
		t.Fatalf("TopK (n=%d, k=%d): cap %d != len %d — the result pins more than it returns", len(pool), k, cap(got), len(got))
	}
}

// TestTopKHeapMatchesSort drives the selector against the full sort on random
// pools with heavy score ties: bit-identical for every k.
func TestTopKHeapMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(600)
		pool := scoredPool(r, n, 1+r.Intn(8))
		checkSelection(t, pool, 1+r.Intn(n))
	}
}

// FuzzTopKSelector checks the selector against the sort oracle under heavy
// score ties (so the action-id tie-break decides), at the k values around the
// pool size.
func FuzzTopKSelector(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(3), uint8(2))
	f.Add(int64(2), uint16(0), uint8(1), uint8(0))
	f.Add(int64(3), uint16(17), uint8(1), uint8(5))
	f.Add(int64(4), uint16(64), uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, size uint16, distinct, kPick uint8) {
		r := rand.New(rand.NewSource(seed))
		n := int(size % 2048)
		pool := scoredPool(r, n, 1+int(distinct%8))
		k := []int{-1, 0, 1, n - 1, n, n + 1}[kPick%6]
		checkSelection(t, pool, k)
	})
}

func TestParseBreadthWeighting(t *testing.T) {
	for name, want := range map[string]BreadthWeighting{
		"overlap": Overlap, "count": Count, "union": Union,
	} {
		got, err := ParseBreadthWeighting(name)
		if err != nil || got != want {
			t.Errorf("ParseBreadthWeighting(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseBreadthWeighting("nope"); err == nil {
		t.Error("unknown weighting accepted")
	}
}
