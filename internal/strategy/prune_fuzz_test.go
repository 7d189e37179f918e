package strategy

import (
	"math/rand"
	"testing"

	"goalrec/internal/core"
	"goalrec/internal/testlib"
)

// FuzzPrunedRankings derives a random library and activity from the fuzzed
// seeds and drives the source table over it — every strategy, from the
// counter kernel (sequential and four-worker sharded), a CounterView and
// 1/2/3-shard partials, against the naive oracle. Even library seeds run on
// the impact-ordered layout, where Focus takes the block-max scan; the
// table's Focus rows fail unless the scan really considered blocks there, so
// the fuzz cannot silently compare the kernel with itself.
func FuzzPrunedRankings(f *testing.F) {
	f.Add(int64(1), int64(2))
	f.Add(int64(42), int64(77))
	f.Add(int64(-9), int64(1<<40))
	f.Add(int64(123456789), int64(-3))
	f.Fuzz(func(t *testing.T, libSeed, querySeed int64) {
		r := rand.New(rand.NewSource(libSeed))
		n := 1 + r.Intn(800)
		actionSpace := 2 + r.Intn(30)
		lib := testlib.RandomLibrary(r, n, actionSpace, 15, 8)
		if libSeed%2 == 0 {
			lib, _ = core.ImpactOrder(lib)
			if !lib.ImplLenSorted() {
				t.Fatal("impact-ordered library does not report a size-sorted layout")
			}
		}
		qr := rand.New(rand.NewSource(querySeed))
		checkEverySource(t, lib, testlib.RandomActivity(qr, actionSpace, 6), "")
	})
}
