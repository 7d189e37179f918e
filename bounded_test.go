package goalrec

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// randomNamedBuilder fills a Builder with n random implementations over a
// skewed action vocabulary, the name-level analogue of testlib.RandomLibrary.
func randomNamedBuilder(t *testing.T, r *rand.Rand, n, actionSpace, goalSpace int) *Builder {
	t.Helper()
	b := NewBuilder()
	for i := 0; i < n; i++ {
		size := 1 + r.Intn(6)
		seen := map[string]bool{}
		var acts []string
		for len(acts) < size {
			a := fmt.Sprintf("act-%d", r.Intn(1+r.Intn(actionSpace)))
			if !seen[a] {
				seen[a] = true
				acts = append(acts, a)
			}
		}
		if err := b.AddImplementation(fmt.Sprintf("goal-%d", r.Intn(goalSpace)), acts...); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// TestBoundedRankingIsHeadOfFullRanking drives every strategy through the
// string API: a bounded ranking must equal the head of the full ranking
// (k = −1) of the same query.
func TestBoundedRankingIsHeadOfFullRanking(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	lib := randomNamedBuilder(t, r, 600, 30, 20).Build()
	for q := 0; q < 15; q++ {
		var h []string
		for i := 0; i < 1+r.Intn(4); i++ {
			h = append(h, fmt.Sprintf("act-%d", r.Intn(30)))
		}
		k := 1 + r.Intn(10)
		for _, s := range Strategies() {
			rec := lib.MustRecommender(s)
			got := rec.Recommend(h, k)
			want := rec.Recommend(h, -1)
			if len(want) > k {
				want = want[:k]
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s bounded ranking diverged from the full one (h=%v k=%d):\ngot  %v\nwant %v", s, h, k, got, want)
			}
		}
	}
}
