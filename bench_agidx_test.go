// Micro-benchmarks for the AG-idx change (PR 1): the old derivations of the
// goal space and profile counts, reconstructed inline through the public
// postings API, against the new AG-idx-backed methods — at several
// connectivity levels. See also internal/strategy/bench_test.go for the
// Best Match scoring-path comparison and cmd/experiments for the end-to-end
// Figure 7 numbers.
package goalrec_test

import (
	"fmt"
	"math/rand"
	"testing"

	"goalrec/internal/core"
	"goalrec/internal/intset"
)

func agBenchLibrary(size, actions int, seed int64) *core.Library {
	r := rand.New(rand.NewSource(seed))
	b := core.NewBuilder(size, 8)
	for i := 0; i < size; i++ {
		n := 2 + r.Intn(12)
		acts := make([]core.ActionID, n)
		for j := range acts {
			acts[j] = core.ActionID(r.Intn(actions))
		}
		if _, err := b.Add(core.GoalID(i/2), acts); err != nil {
			panic(err)
		}
	}
	return b.Build()
}

func agBenchQueries(actions, n, length int, seed int64) [][]core.ActionID {
	r := rand.New(rand.NewSource(seed))
	qs := make([][]core.ActionID, n)
	for i := range qs {
		q := make([]core.ActionID, length)
		for j := range q {
			q[j] = core.ActionID(r.Intn(actions))
		}
		qs[i] = q
	}
	return qs
}

var agBenchCells = []struct {
	name    string
	actions int
}{
	{"conn-low", 8000},
	{"conn-mid", 2000},
	{"conn-high", 500},
}

// legacyGoalSpace is the pre-AG derivation: materialize IS(H), then collect
// and deduplicate the goal of every implementation in it.
func legacyGoalSpace(lib *core.Library, h []core.ActionID) []core.GoalID {
	space := lib.ImplementationSpace(h)
	if len(space) == 0 {
		return nil
	}
	out := make([]core.GoalID, 0, len(space))
	for _, p := range space {
		out = append(out, lib.Goal(p))
	}
	return intset.FromUnsorted(out)
}

// BenchmarkGoalSpace compares the old IS-materializing goal space with the
// new AG-idx union across connectivity levels.
func BenchmarkGoalSpace(b *testing.B) {
	for _, cell := range agBenchCells {
		lib := agBenchLibrary(20000, cell.actions, 3)
		queries := agBenchQueries(cell.actions, 64, 5, 4)
		conn := lib.Stats().Connectivity
		b.Run(fmt.Sprintf("%s/conn=%.0f/postings-old", cell.name, conn), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				legacyGoalSpace(lib, queries[i%len(queries)])
			}
		})
		b.Run(fmt.Sprintf("%s/conn=%.0f/ag-new", cell.name, conn), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lib.GoalSpace(queries[i%len(queries)])
			}
		})
	}
}

// legacyActionGoalCount is the pre-AG derivation Explain/TopGoals used: walk
// the action's full posting list counting implementations of the goal.
func legacyActionGoalCount(lib *core.Library, a core.ActionID, g core.GoalID) int {
	n := 0
	for _, p := range lib.ImplsOfAction(a) {
		if lib.Goal(p) == g {
			n++
		}
	}
	return n
}

// BenchmarkActionGoalCount compares the posting-list walk with the AG-idx
// binary search backing Explain and TopGoals.
func BenchmarkActionGoalCount(b *testing.B) {
	lib := agBenchLibrary(20000, 500, 3)
	r := rand.New(rand.NewSource(5))
	pairs := make([][2]int32, 256)
	for i := range pairs {
		pairs[i] = [2]int32{int32(r.Intn(500)), int32(r.Intn(10000))}
	}
	b.Run("postings-old", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			legacyActionGoalCount(lib, core.ActionID(p[0]), core.GoalID(p[1]))
		}
	})
	b.Run("ag-new", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			lib.ActionGoalCount(core.ActionID(p[0]), core.GoalID(p[1]))
		}
	})
}
