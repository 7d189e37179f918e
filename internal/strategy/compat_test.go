package strategy

import (
	"math/rand"
	"reflect"
	"testing"

	"goalrec/internal/core"
	"goalrec/internal/intset"
	"goalrec/internal/testlib"
)

// TestRetiredLayoutSnapshotServes: every strategy, through every source,
// ranks a snapshot written in the retired impact-ordered layout exactly as
// the naive oracle ranks the opened snapshot (see internal/core's
// compat_test.go for the fixture).
func TestRetiredLayoutSnapshotServes(t *testing.T) {
	snap, err := core.OpenSnapshotVerified(nil, "../core/testdata/recipes-impact.gsnp", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	lib := snap.Library()
	r := rand.New(rand.NewSource(5))
	for q := 0; q < 20; q++ {
		checkEverySource(t, lib, testlib.RandomActivity(r, lib.NumActions(), 5), "")
	}
}

// TestDenseSnapshotsServe: the committed fixtures, version-1 images that
// store every goal's GA row, and their version-2 rewrites, which store only
// the rows of goals whose implementations share an action, rank the same
// activities identically, and as the naive oracle does.
func TestDenseSnapshotsServe(t *testing.T) {
	for _, path := range []string{"../core/testdata/recipes.jsonl.gsnp", "../core/testdata/recipes-impact.gsnp"} {
		snap, err := core.OpenSnapshotVerified(nil, path, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer snap.Close()
		dense := snap.Library()
		sparse := openSnapshotLibrary(t, dense)
		r := rand.New(rand.NewSource(6))
		for q := 0; q < 20; q++ {
			h := intset.FromUnsorted(testlib.RandomActivity(r, dense.NumActions(), 5))
			for _, m := range []Metric{Cosine, Euclidean, Manhattan, JaccardDist} {
				want := NewBestMatchMetric(dense, m).Recommend(h, -1)
				if got := NewBestMatchMetric(sparse, m).Recommend(h, -1); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, %s: the rewrite ranks %v\nthe fixture %v", path, m, got, want)
				}
			}
			checkEverySource(t, sparse, h, "")
		}
	}
}
