package strategy

import (
	"math/rand"
	"testing"

	"goalrec/internal/core"
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
