package strategy

import (
	"container/list"
	"fmt"
	"runtime"
	"testing"

	"goalrec/internal/core"
)

// minCandidates returns the smallest candidate pool among the queries, so the
// tests below can pin the premise they depend on: pools far larger than k.
func minCandidates(lib *core.Library, queries [][]core.ActionID) int {
	least := lib.NumActions()
	for _, q := range queries {
		if n := len(lib.Candidates(q)); n < least {
			least = n
		}
	}
	return least
}

// heapAfterGC returns the live heap once everything unreachable is collected.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC() // a second cycle frees what the first one's finalizers and pools released
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestCachedRetainsExactlyK fills a result cache past capacity with distinct
// activities whose candidate pools dwarf k, each sent twice so that it
// reaches the main segment, and pins what an entry costs: every stored list
// in either segment has cap == len ≤ k, and the live heap grows by well
// under 1 KB per entry. A strategy that hands the cache a k-element window of a
// pool-sized scoring array — or a cache that stores what it is handed — keeps
// 16 bytes per *candidate* alive per entry instead.
func TestCachedRetainsExactlyK(t *testing.T) {
	const (
		k        = 10
		capacity = 256
	)
	lib := benchLibrary(40000, 4000, 5)
	queries := benchQueries(4000, capacity+64, 5, 6)
	if n := minCandidates(lib, queries); n < 1000 {
		t.Fatalf("smallest candidate pool = %d, want ≥ 1000: the fixture no longer dwarfs k", n)
	}
	for _, inner := range []Recommender{NewBestMatch(lib), NewBreadth(lib)} {
		t.Run(inner.Name(), func(t *testing.T) {
			cached := NewCached(inner, capacity)
			cached.Recommend(queries[0], k) // scratch pools and lazy buffers exist before the baseline
			before := heapAfterGC()
			for _, q := range queries {
				cached.Recommend(q, k)
				cached.Recommend(q, k) // a hit: promoted to the main segment
			}
			after := heapAfterGC()

			entries := 0
			for i := range cached.shards {
				sh := &cached.shards[i]
				for _, seg := range []*list.List{sh.probation, sh.main} {
					for el := seg.Front(); el != nil; el = el.Next() {
						l := el.Value.(*cacheEntry).list
						if cap(l) != len(l) || len(l) > k {
							t.Fatalf("stored list has len %d cap %d, want cap == len ≤ %d", len(l), cap(l), k)
						}
						entries++
					}
				}
			}
			if entries < capacity/2 {
				t.Fatalf("cache holds %d entries, want the %d-entry capacity filled", entries, capacity)
			}
			if after > before {
				if perEntry := (after - before) / uint64(entries); perEntry >= 1024 {
					t.Fatalf("live heap grew %d bytes per cached entry (%d entries), want < 1024", perEntry, entries)
				}
			}
		})
	}
}

// TestBestMatchAllocationBudget pins what an uncached Best Match query
// allocates below budgets that must not scale with the candidate pool: two
// libraries whose pools differ about 4× — the larger one at the repository
// benchmark's shape of a few thousand candidates per query — both stay under
// 32 KB and 3 allocations per query on both scoring paths, for cosine and
// for an L2 (euclidean) and an L1 (jaccard) metric.
func TestBestMatchAllocationBudget(t *testing.T) {
	const (
		budget      = 32 << 10
		allocBudget = 3
	)
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop scratch at random; the budget is pinned by the plain run")
	}
	for _, size := range []int{25000, 100000} {
		lib := benchLibrary(size, 10000, 7)
		queries := benchQueries(10000, 128, 5, 8)
		pool := minCandidates(lib, queries)
		for _, c := range []struct {
			name   string
			metric Metric
		}{
			{"goal-major", Cosine},
			{"euclidean-goal-major", Euclidean},
			{"manhattan-goal-major", Manhattan},
			{"jaccard-goal-major", JaccardDist},
		} {
			t.Run(fmt.Sprintf("impls=%d/pool>=%d/%s", size, pool, c.name), func(t *testing.T) {
				perQuery, allocs := queryAllocs(t, NewBestMatchMetric(lib, c.metric), queries)
				if perQuery > budget {
					t.Fatalf("uncached query allocates %d bytes, budget %d", perQuery, budget)
				}
				if allocs > allocBudget {
					t.Fatalf("uncached query makes %d allocations, budget %d", allocs, allocBudget)
				}
			})
		}
	}
}

// queryAllocs returns the bytes and the whole allocations an uncached top-10
// query of rec makes, averaged over queries once the pooled scratch has
// grown to the library's shape.
func queryAllocs(t *testing.T, rec Recommender, queries [][]core.ActionID) (bytes, allocs uint64) {
	t.Helper()
	for _, q := range queries[:8] {
		rec.Recommend(q, 10)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, q := range queries {
		rec.Recommend(q, 10)
	}
	runtime.ReadMemStats(&m1)
	n := uint64(len(queries))
	mallocs := m1.Mallocs - m0.Mallocs
	t.Logf("%d bytes, %.2f allocations per query", (m1.TotalAlloc-m0.TotalAlloc)/n, float64(mallocs)/float64(n))
	// Whole allocations per query, truncated as testing.AllocsPerRun does: a
	// rare pool refill after a GC must not flake the bound.
	return (m1.TotalAlloc - m0.TotalAlloc) / n, mallocs / n
}

// TestScanAllocationBudget pins what an uncached Focus or Breadth query
// allocates on BenchmarkScanKernel's library. The kernel's ticker stays on
// the stack: a Breadth query allocates its normalized activity and its
// result, and a Focus query one allocation fewer than when the ticker went
// to the heap through the kernel's visit callback (12 and 3 then).
func TestScanAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop scratch at random; the budget is pinned by the plain run")
	}
	lib := benchLibrary(20000, 500, 3)
	queries := benchQueries(500, 128, 5, 4)
	for _, c := range []struct {
		rec    Recommender
		budget uint64
	}{
		{NewFocus(lib, Completeness), 11},
		{NewFocus(lib, Closeness), 11},
		{NewBreadthWeighted(lib, Overlap), 2},
		{NewBreadthWeighted(lib, Count), 2},
		{NewBreadthWeighted(lib, Union), 2},
	} {
		t.Run(c.rec.Name(), func(t *testing.T) {
			if _, allocs := queryAllocs(t, c.rec, queries); allocs > c.budget {
				t.Fatalf("uncached query makes %d allocations, budget %d", allocs, c.budget)
			}
		})
	}
}
