package strategy

import (
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
// activities whose candidate pools dwarf k and pins what an entry costs: every
// stored list has cap == len ≤ k, and the live heap grows by well under 1 KB
// per entry. A strategy that hands the cache a k-element window of a
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
			}
			after := heapAfterGC()

			entries := 0
			for i := range cached.shards {
				sh := &cached.shards[i]
				for el := sh.lru.Front(); el != nil; el = el.Next() {
					l := el.Value.(*cacheEntry).list
					if cap(l) != len(l) || len(l) > k {
						t.Fatalf("stored list has len %d cap %d, want cap == len ≤ %d", len(l), cap(l), k)
					}
					entries++
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

// TestBestMatchAllocationBudget pins the bytes an uncached cosine Best Match
// query allocates below a budget that must not scale with the candidate pool:
// two libraries whose pools differ about 4× — the larger one at the
// repository benchmark's shape of a few thousand candidates per query — both
// stay under 32 KB on every scoring path that serves traffic.
func TestBestMatchAllocationBudget(t *testing.T) {
	const budget = 32 << 10
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop scratch at random; the budget is pinned by the plain run")
	}
	for _, size := range []int{25000, 100000} {
		lib := benchLibrary(size, 10000, 7)
		queries := benchQueries(10000, 128, 5, 8)
		pool := minCandidates(lib, queries)
		for _, m := range []struct {
			name    string
			mode    bmMode
			workers int
		}{
			{"candidate-major", bmCandidateMajor, 1},
			{"sharded", bmCandidateMajor, 2},
			{"goal-major", bmGoalMajor, 1},
		} {
			t.Run(fmt.Sprintf("impls=%d/pool>=%d/%s", size, pool, m.name), func(t *testing.T) {
				bm := NewBestMatch(lib)
				bm.mode, bm.maxWorkers, bm.shardMin = m.mode, m.workers, 1
				for _, q := range queries[:8] {
					bm.Recommend(q, 10) // grow the pooled scratch to the library's shape
				}
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				for _, q := range queries {
					bm.Recommend(q, 10)
				}
				runtime.ReadMemStats(&m1)
				perQuery := (m1.TotalAlloc - m0.TotalAlloc) / uint64(len(queries))
				t.Logf("%d bytes, %.1f allocations per query", perQuery, float64(m1.Mallocs-m0.Mallocs)/float64(len(queries)))
				if perQuery > budget {
					t.Fatalf("uncached query allocates %d bytes, budget %d", perQuery, budget)
				}
			})
		}
	}
}
