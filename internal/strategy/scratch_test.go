package strategy

import (
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"goalrec/internal/core"
	"goalrec/internal/intset"
	"goalrec/internal/testlib"
)

// TestSharedScratchAcrossLibraries interleaves the source table — Focus,
// Breadth and every Best Match metric (cosine before the L1 metrics), from
// scratch, through a view and through shard partials — over a shard, its
// full library and a smaller library. Every instance draws on the package's
// shared scratch pools, so every buffer must grow to the library at hand on
// use: a scratch sized on the shard or the small library would overrun on
// the full one, and a cosine-first Best Match scratch has no L1
// accumulators. Each ranking must equal the naive oracle of its library.
func TestSharedScratchAcrossLibraries(t *testing.T) {
	r := rand.New(rand.NewSource(36))
	shard, full, small := scratchLibraries(t, r)
	for q := 0; q < 8; q++ {
		// Drawn over the full action space: the small library sees ids it
		// does not know, which count toward |H| but have no postings.
		h := testlib.RandomActivity(r, 60, 6)
		for _, lib := range []*core.Library{shard, full, small, full, shard} {
			checkEverySource(t, lib, h, "")
		}
	}
}

// scratchLibraries returns a shard of a library, the library, and a smaller
// library with a smaller action space (60 and 10 action ids).
func scratchLibraries(t *testing.T, r *rand.Rand) (shard, full, small *core.Library) {
	t.Helper()
	full = testlib.RandomLibrary(r, 1200, 60, 300, 9)
	shard, err := core.PartitionRange(full, 0, 400)
	if err != nil {
		t.Fatal(err)
	}
	return shard, full, testlib.RandomLibrary(r, 40, 10, 8, 5)
}

// TestSharedScratchConcurrentInstances runs fresh instances of every
// strategy over the three libraries of TestSharedScratchAcrossLibraries from
// several goroutines at once, each in its own order, so the shared pools
// pass scratch between instances, metrics and libraries under the race
// detector. Every ranking must equal the oracle's.
func TestSharedScratchConcurrentInstances(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	shard, full, small := scratchLibraries(t, r)
	type job struct {
		name string
		x    *sourceFixture
		src  rankingSource // the table's "kernel" source: a fresh instance's Recommend
		want []ScoredAction
	}
	var jobs []job
	for _, lib := range []*core.Library{shard, full, small} {
		o := newOracle(lib)
		h := intset.FromUnsorted(testlib.RandomActivity(r, 60, 6))
		for _, c := range strategyCases() {
			if c.sources[0].name != "kernel" {
				t.Fatalf("%s: first source is %q, want the from-scratch kernel", c.name, c.sources[0].name)
			}
			jobs = append(jobs, job{c.name, &sourceFixture{lib: lib, h: h}, c.sources[0], c.oracle(o, h, 10)})
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3*len(jobs); i++ {
				j := jobs[(w*7+i)%len(jobs)]
				if got, _ := j.src.run(t, j.x, 10); !(len(got) == 0 && len(j.want) == 0) && !reflect.DeepEqual(got, j.want) {
					t.Errorf("%s (h=%v) diverged from the oracle:\ngot  %v\nwant %v", j.name, j.x.h, got, j.want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestFocusFirstQueryAllocatesOnce: a Focus query that finds the scratch
// pools empty allocates each buffer once, at the size it uses — the counter
// array (1 B per implementation), the touched list (4 B per posting of the
// activity's rows, at most per implementation), the counts (4 B per
// candidate) and the ranked buffer (16 B per candidate) — plus a little for
// the activity and the result. Grown by appending, and with a selection
// copy beside the ranked buffer, it allocated more than twice that.
func TestFocusFirstQueryAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop scratch at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const slack = 32 << 10
	lib := benchLibrary(100_000, 100, 7)
	q := benchQueries(100, 1, 5, 8)[0]
	candidates, postings := map[core.ImplID]bool{}, 0
	for _, a := range q {
		postings += len(lib.ImplsOfAction(a))
		for _, p := range lib.ImplsOfAction(a) {
			candidates[p] = true
		}
	}
	n := lib.NumImplementations()
	budget := uint64(n + 4*min(postings, n) + 20*len(candidates) + slack)
	for _, measure := range []FocusMeasure{Completeness, Closeness} {
		t.Run(measure.String(), func(t *testing.T) {
			f := NewFocus(lib, measure)
			runtime.GC() // twice: a pool's victim cache survives one cycle
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			f.Recommend(q, 10)
			runtime.ReadMemStats(&m1)
			if d := m1.TotalAlloc - m0.TotalAlloc; d > budget {
				t.Fatalf("a first query over %d candidates allocated %d bytes, budget %d", len(candidates), d, budget)
			} else {
				t.Logf("a first query over %d candidates allocated %d bytes, budget %d", len(candidates), d, budget)
			}
		})
	}
}

// TestBestMatchFirstQueryAllocates is the Best Match twin at the bench
// shape (250 000 implementations, two per goal, 10 000 actions): a query
// that finds the scratch pool empty allocates the accumulators (16 B per
// action, cosine), the candidate bitset (1 bit per action), the touched
// actions (4 B per action, sized once before the walk), the candidate pool
// (8 B per candidate as it grows) and the profile (16 B per goal as it
// grows) — and a goal tally under 128 KB. With one stamp per goal id the
// tally alone took 1 MB; with the touched actions grown by append, the query
// took 432 KB, over this budget.
func TestBestMatchFirstQueryAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop scratch at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const tally, slack = 128 << 10, 32 << 10
	lib := benchLibrary(250000, 10000, 7)
	for i, q := range benchQueries(10000, 3, 5, 8) {
		h := intset.FromUnsorted(intset.Clone(q))
		pool, goals, n := len(lib.Candidates(h)), len(lib.GoalSpace(h)), lib.NumActions()
		budget := uint64(16*n + n/8 + 4*n + 8*pool + 16*goals + tally + slack)
		bm := NewBestMatch(lib)
		runtime.GC() // twice: a pool's victim cache survives one cycle
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		bm.Recommend(q, 10)
		runtime.ReadMemStats(&m1)
		if d := m1.TotalAlloc - m0.TotalAlloc; d > budget {
			t.Fatalf("query %d: a first query over %d candidates and %d goals allocated %d bytes, budget %d", i, pool, goals, d, budget)
		} else {
			t.Logf("query %d: a first query over %d candidates and %d goals allocated %d bytes, budget %d", i, pool, goals, d, budget)
		}
	}
}

// TestFreshInstanceReusesScratch pins the point of the shared pools: once
// one instance has run a query, a fresh instance over the same library — as
// every engine epoch builds — allocates only its result, not another
// library-sized counter array (1 MB at 250 000 implementations) or
// action-indexed accumulator. The same holds across an ingest: a fresh
// instance over a snapshot 8 implementations and 8 goals larger, as one
// benchmark ingest adds, finds the counter and goal stamp arrays grown in
// place, not reallocated at the new size.
func TestFreshInstanceReusesScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop scratch at random")
	}
	// One P, so both queries meet the same per-P pool slot, and no GC, so
	// the pool is not flushed between them.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const budget = 64 << 10
	lib := benchLibrary(250000, 10000, 7)
	q := benchQueries(10000, 1, 5, 8)[0]
	d := core.NewDynamicLibrary()
	d.Swap(lib)
	r := rand.New(rand.NewSource(54))
	ingest := func() *core.Library {
		g := d.Snapshot().NumGoals()
		for i := 0; i < 8; i++ {
			acts := []core.ActionID{core.ActionID(r.Intn(10000)), core.ActionID(r.Intn(10000)), core.ActionID(r.Intn(10000))}
			if _, err := d.Add(core.GoalID(g+i), acts); err != nil {
				t.Fatal(err)
			}
		}
		return d.Snapshot()
	}
	for _, c := range []struct {
		name string
		mk   func(*core.Library) Recommender
	}{
		{"focus-cmp", func(l *core.Library) Recommender { return NewFocus(l, Completeness) }},
		{"focus-cl", func(l *core.Library) Recommender { return NewFocus(l, Closeness) }},
		{"breadth", func(l *core.Library) Recommender { return NewBreadth(l) }},
		{"best-match", func(l *core.Library) Recommender { return NewBestMatch(l) }},
		{"best-match-manhattan", func(l *core.Library) Recommender { return NewBestMatchMetric(l, Manhattan) }},
	} {
		for _, grown := range []bool{false, true} {
			name := c.name
			if grown {
				name += "/grown"
			}
			t.Run(name, func(t *testing.T) {
				warm, next := lib, lib
				if grown {
					warm = ingest()
					next = ingest()
				}
				c.mk(warm).Recommend(q, 10) // warm the shared pool
				fresh := c.mk(next)
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				fresh.Recommend(q, 10)
				runtime.ReadMemStats(&m1)
				if d := m1.TotalAlloc - m0.TotalAlloc; d >= budget {
					t.Fatalf("a fresh instance's first query allocated %d bytes, budget %d", d, budget)
				}
			})
		}
	}
}
