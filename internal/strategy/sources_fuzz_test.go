package strategy

import (
	"math/rand"
	"testing"

	"goalrec/internal/testlib"
)

// FuzzSourceRankings derives a random library — with goals of one
// implementation, of action-disjoint ones and of ones that share an action
// (testlib.MixedLibrary) — and an activity from the fuzzed seeds and drives
// the source table over it — every strategy and every Best
// Match metric, from the counter kernel (each Best Match scoring path
// forced), the CounterView shim and 1/2/3-shard partials, against the naive
// oracle.
func FuzzSourceRankings(f *testing.F) {
	f.Add(int64(1), int64(2))
	f.Add(int64(42), int64(77))
	f.Add(int64(-9), int64(1<<40))
	f.Add(int64(123456789), int64(-3))
	f.Fuzz(func(t *testing.T, libSeed, querySeed int64) {
		r := rand.New(rand.NewSource(libSeed))
		n := 1 + r.Intn(800)
		actionSpace := 2 + r.Intn(30)
		lib := testlib.MixedLibrary(r, n, actionSpace, 15, 8)
		qr := rand.New(rand.NewSource(querySeed))
		checkEverySource(t, lib, testlib.RandomActivity(qr, actionSpace, 6), "")
	})
}
