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

// BenchmarkBestMatchModes compares the two AG-idx scoring paths and the
// automatic cost-based choice on the same libraries and queries.
func BenchmarkBestMatchModes(b *testing.B) {
	for _, cell := range benchCells {
		lib := benchLibrary(20000, cell.actions, 3)
		queries := benchQueries(cell.actions, 64, 5, 4)
		conn := lib.Stats().Connectivity
		for _, m := range []struct {
			name string
			mode bmMode
		}{
			{"candidate-major", bmCandidateMajor},
			{"goal-major", bmGoalMajor},
			{"auto", bmAuto},
		} {
			bm := NewBestMatch(lib)
			bm.mode = m.mode
			b.Run(fmt.Sprintf("%s/conn=%.0f/%s", cell.name, conn, m.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					bm.Recommend(queries[i%len(queries)], 10)
				}
			})
		}
	}
}

// BenchmarkBestMatchSharded measures the intra-query worker pool against the
// serial candidate-major path on the densest cell.
func BenchmarkBestMatchSharded(b *testing.B) {
	lib := benchLibrary(20000, 500, 3)
	queries := benchQueries(500, 64, 5, 4)
	for _, workers := range []int{1, 2, 4} {
		bm := NewBestMatch(lib)
		bm.mode = bmCandidateMajor
		bm.maxWorkers = workers
		bm.shardMin = 1
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bm.Recommend(queries[i%len(queries)], 10)
			}
		})
	}
}

// BenchmarkScanKernelSharded measures the kernelized Focus/Breadth scan at
// worker counts {1, 2, 4} on the densest cell — the regime the sharded
// implementation scan targets. workers=1 is the sequential kernel; higher
// counts show the intra-query scaling on multi-core hosts.
func BenchmarkScanKernelSharded(b *testing.B) {
	lib := benchLibrary(20000, 500, 3)
	queries := benchQueries(500, 64, 5, 4)
	for _, workers := range []int{1, 2, 4} {
		fc := NewFocus(lib, Completeness)
		fc.SetConcurrency(workers, 1)
		fcl := NewFocus(lib, Closeness)
		fcl.SetConcurrency(workers, 1)
		br := NewBreadth(lib)
		br.SetConcurrency(workers, 1)
		for _, rec := range []Recommender{fc, fcl, br} {
			rec := rec
			b.Run(fmt.Sprintf("%s/workers=%d", rec.Name(), workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					rec.Recommend(queries[i%len(queries)], 10)
				}
			})
		}
	}
}

// BenchmarkPrunedStrategies runs every strategy on the natural and the
// impact-ordered layout of the densest cell. On the latter Focus takes the
// block-max scan, so besides the layout comparison this is the CI smoke that
// exercises the scan at -benchtime=1x.
func BenchmarkPrunedStrategies(b *testing.B) {
	base := benchLibrary(20000, 500, 3)
	impact, _ := core.ImpactOrder(base)
	queries := benchQueries(500, 64, 5, 4)
	for _, layout := range []struct {
		name string
		lib  *core.Library
	}{{"plain", base}, {"impact", impact}} {
		for _, rec := range []Recommender{
			NewFocus(layout.lib, Completeness), NewFocus(layout.lib, Closeness),
			NewBreadth(layout.lib), NewBestMatch(layout.lib),
		} {
			b.Run(layout.name+"/"+rec.Name(), func(b *testing.B) {
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
