package strategy

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"goalrec/internal/core"
)

// benchLibrary mirrors the Figure 7 generator: `size` implementations of ~8
// uniform actions over a fixed action space, two implementations per goal.
// Shrinking the action space at fixed size raises connectivity, the axis that
// drives Best Match cost.
func benchLibrary(size, actions int, seed int64) *core.Library {
	return benchLibraryGoals(size, actions, 2, seed)
}

// benchLibraryGoals is benchLibrary with perGoal implementations per goal.
func benchLibraryGoals(size, actions, perGoal int, seed int64) *core.Library {
	r := rand.New(rand.NewSource(seed))
	b := core.NewBuilder(size, 8)
	for i := 0; i < size; i++ {
		n := 2 + r.Intn(12)
		acts := make([]core.ActionID, n)
		for j := range acts {
			acts[j] = core.ActionID(r.Intn(actions))
		}
		if _, err := b.Add(core.GoalID(i/perGoal), acts); err != nil {
			panic(err)
		}
	}
	return b.Build()
}

func benchQueries(actions, n, length int, seed int64) [][]core.ActionID {
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

// benchCells sweeps connectivity at a fixed library size: 20k
// implementations over shrinking action spaces.
var benchCells = []struct {
	name    string
	actions int
}{
	{"conn-low", 8000},
	{"conn-mid", 2000},
	{"conn-high", 500},
}

// BenchmarkBestMatchModes times the goal-major scoring pass on the
// connectivity sweep, on a library of a few giant goals (50 goals of 5 000
// implementations), where every candidate's posting row is long and the goal
// space tiny, and at the repository benchmark's shape (250 000
// implementations over 10 000 actions, two per goal), whose per-goal and
// per-implementation scratch no longer fits a core's cache, for cosine and
// for manhattan, whose pass also accumulates the L1 sums.
func BenchmarkBestMatchModes(b *testing.B) {
	type cell struct {
		name          string
		size, actions int
		perGoal       int
	}
	cells := []cell{
		{name: "giant-goals", size: 250000, actions: 10000, perGoal: 5000},
		{name: "bench-shape", size: 250000, actions: 10000, perGoal: 2},
	}
	for _, c := range benchCells {
		cells = append(cells, cell{name: c.name, size: 20000, actions: c.actions, perGoal: 2})
	}
	for _, cell := range cells {
		lib := benchLibraryGoals(cell.size, cell.actions, cell.perGoal, 3)
		queries := benchQueries(cell.actions, 64, 5, 4)
		conn := lib.Stats().Connectivity
		for _, metric := range []Metric{Cosine, Manhattan} {
			bm := NewBestMatchMetric(lib, metric)
			b.Run(fmt.Sprintf("%s/conn=%.0f/%v/goal-major", cell.name, conn, metric), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					bm.Recommend(queries[i%len(queries)], 10)
				}
			})
		}
	}
}

// BenchmarkScanKernel measures the kernelized Focus/Breadth scan on the
// densest cell, where the posting stream per query is longest, and at the
// repository benchmark's shape ("impls=250000": 250 000 implementations over
// 10 000 actions, two per goal), where the counter array is 250 000 wide.
func BenchmarkScanKernel(b *testing.B) {
	for _, cell := range []struct {
		prefix        string
		size, actions int
	}{{"", 20000, 500}, {"impls=250000/", 250000, 10000}} {
		lib := benchLibrary(cell.size, cell.actions, 3)
		queries := benchQueries(cell.actions, 64, 5, 4)
		for _, rec := range []Recommender{NewFocus(lib, Completeness), NewFocus(lib, Closeness), NewBreadth(lib)} {
			b.Run(cell.prefix+rec.Name(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rec.Recommend(queries[i%len(queries)], 10)
				}
			})
		}
	}
}

// BenchmarkTopKSelection compares the k-bounded selector against the full
// sort it replaced, at the pool sizes a dense library produces.
func BenchmarkTopKSelection(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	for _, n := range []int{1000, 100000} {
		pool := make([]ScoredAction, n)
		for i := range pool {
			pool[i] = ScoredAction{Action: core.ActionID(i), Score: -r.Float64()}
		}
		r.Shuffle(n, func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		scratch := make([]ScoredAction, n)
		b.Run(fmt.Sprintf("n=%d/sort-old", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(scratch, pool)
				sort.Slice(scratch, func(i, j int) bool { return ranksBefore(scratch[i], scratch[j]) })
				_ = scratch[:10]
			}
		})
		b.Run(fmt.Sprintf("n=%d/heap-new", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				TopK(pool, 10)
			}
		})
	}
}
