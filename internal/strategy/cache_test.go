package strategy

import (
	"container/list"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"goalrec/internal/core"
	"goalrec/internal/testlib"
)

// countingRecommender counts how often the inner strategy actually runs.
type countingRecommender struct {
	inner Recommender
	mu    sync.Mutex
	calls int
}

func (c *countingRecommender) Name() string { return c.inner.Name() }

func (c *countingRecommender) Recommend(h []core.ActionID, k int) []ScoredAction {
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	return c.inner.Recommend(h, k)
}

func TestCachedReturnsSameResults(t *testing.T) {
	lib := testlib.PaperLibrary()
	plain := NewBreadth(lib)
	cached := NewCached(NewBreadth(lib), 16)
	if cached.Name() != "breadth" {
		t.Errorf("Name = %q", cached.Name())
	}
	for _, h := range [][]core.ActionID{acts(0), acts(0, 1), acts(1, 2), nil} {
		want := plain.Recommend(h, 4)
		got := cached.Recommend(h, 4)
		again := cached.Recommend(h, 4)
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(again, want) {
			t.Errorf("cached output diverged for %v", h)
		}
	}
}

func TestCachedHitsPermutations(t *testing.T) {
	lib := testlib.PaperLibrary()
	counter := &countingRecommender{inner: NewBreadth(lib)}
	cached := NewCached(counter, 16)

	cached.Recommend(acts(0, 1), 4)
	cached.Recommend(acts(1, 0), 4)    // permutation → cache hit
	cached.Recommend(acts(1, 0, 1), 4) // duplicates → cache hit
	if counter.calls != 1 {
		t.Errorf("inner calls = %d, want 1", counter.calls)
	}
	if st := cached.Stats(); st.Hits != 2 || st.Misses != 1 {
		t.Errorf("stats = %d hits, %d misses", st.Hits, st.Misses)
	}
	// Different k is a different entry.
	cached.Recommend(acts(0, 1), 5)
	if counter.calls != 2 {
		t.Errorf("k variation not separated: calls = %d", counter.calls)
	}
}

func TestCachedEviction(t *testing.T) {
	lib := testlib.PaperLibrary()
	counter := &countingRecommender{inner: NewBreadth(lib)}
	cached := NewCached(counter, 2) // one probation entry, one main entry

	cached.Recommend(acts(0), 4)
	cached.Recommend(acts(0), 4) // hit: promoted to main
	cached.Recommend(acts(1), 4)
	cached.Recommend(acts(2), 4) // recycles acts(1)'s probation entry
	if cached.Len() != 2 {
		t.Errorf("Len = %d, want 2", cached.Len())
	}
	cached.Recommend(acts(1), 4) // miss again
	if counter.calls != 4 {
		t.Errorf("calls = %d, want 4 (eviction forced recompute)", counter.calls)
	}
	// Recently used entry survived.
	cached.Recommend(acts(0), 4)
	if counter.calls != 4 {
		t.Errorf("calls = %d, recently-used entry evicted", counter.calls)
	}
}

// stubRecommender answers at no scoring cost with fresh results derived
// from the activity — between 0 and k of them — so what is measured is the
// cache alone.
type stubRecommender struct{}

func (stubRecommender) Name() string { return "stub" }

func (stubRecommender) Recommend(h []core.ActionID, k int) []ScoredAction {
	n := k
	if len(h) > 0 {
		n = int(h[0]) % (k + 1)
	}
	out := make([]ScoredAction, n)
	for i := range out {
		out[i] = ScoredAction{Action: core.ActionID(i), Score: float64(len(h)) - float64(i)}
	}
	return out
}

// TestCachedOneShotFloodKeepsRepeats pins the probation segment's point:
// a flood of distinct activities, each seen once, stays in probation — an
// eighth of the capacity, recycled in place — and leaves an activity that
// repeated before it cached. A plain LRU of the server's 4 096 entries
// evicts that activity and keeps every one-shot entry, ≈ 1.14 MB live.
func TestCachedOneShotFloodKeepsRepeats(t *testing.T) {
	const capacity, k, flood = 4096, 10, 20000
	cached := NewCached(stubRecommender{}, capacity)
	probation := 0
	for i := range cached.shards {
		probation += cached.shards[i].probCap
	}
	hot := acts(k)
	cached.Recommend(hot, k)
	cached.Recommend(hot, k) // a hit: promoted
	r := rand.New(rand.NewSource(56))
	before := heapAfterGC()
	// Distinct pairs with random ids, as activities spread over the shards,
	// each answered with k results.
	oneShot := func() { cached.Recommend(acts(k, core.ActionID(k+1+r.Intn(1<<30))), k) }
	for i := 0; i < flood; i++ {
		oneShot()
	}
	after := heapAfterGC()
	st := cached.Stats()
	if st.Entries > capacity || st.Probation > probation {
		t.Fatalf("%d entries, %d in probation: want ≤ %d and ≤ %d", st.Entries, st.Probation, capacity, probation)
	}
	cached.Recommend(hot, k)
	if again := cached.Stats(); again.Misses != st.Misses {
		t.Fatal("one-shot activities evicted an activity that repeated")
	}
	grew := int64(after) - int64(before)
	t.Logf("live heap grew %d bytes over %d one-shot misses (%d entries, %d in probation)", grew, flood, st.Entries, st.Probation)
	if grew >= 256<<10 {
		t.Fatalf("live heap grew %d bytes, want < 256 KB", grew)
	}
	// A miss on a full probation allocates the normalized activity, the
	// stub's results and the key; the entry, its list node and its results'
	// array are recycled.
	if allocs := testing.AllocsPerRun(100, oneShot); allocs > 3 {
		t.Fatalf("a one-shot miss makes %.1f allocations, want ≤ 3", allocs)
	}
}

// TestCachedShardsSpreadConsecutiveIDs: activities that differ only in
// low-order key bytes — 20 000 pairs of consecutive ids — spread over all
// 16 shards, each within half and twice its mean share. FNV-1a's low bits
// leave some shards empty and put a quarter of the activities in one.
func TestCachedShardsSpreadConsecutiveIDs(t *testing.T) {
	const n, k = 20000, 10
	cached := NewCached(stubRecommender{}, 4096)
	if len(cached.shards) != 16 {
		t.Fatalf("%d shards, want 16", len(cached.shards))
	}
	count := make(map[*cacheShard]int)
	for i := 0; i < n; i++ {
		_, hash := cacheKey(nil, acts(core.ActionID(11+i), core.ActionID(12+i)), k)
		count[cached.shard(hash)]++
	}
	mean := n / len(cached.shards)
	for i := range cached.shards {
		if c := count[&cached.shards[i]]; c < mean/2 || c > 2*mean {
			t.Errorf("shard %d holds %d of %d activities, want within [%d, %d]", i, c, n, mean/2, 2*mean)
		}
	}
}

// TestCachedRecycledEntriesStayExact mixes repeats and one-shots over a
// small cache so that entries are promoted, dropped from main and recycled
// with results of every length from 0 to k: every stored list still has
// cap == len ≤ k, and no returned list aliases a stored one — scribbling
// over everything returned changes no later answer.
func TestCachedRecycledEntriesStayExact(t *testing.T) {
	const k = 10
	cached := NewCached(stubRecommender{}, 16)
	r := rand.New(rand.NewSource(56))
	var returned [][]ScoredAction
	for i := 0; i < 2000; i++ {
		returned = append(returned, cached.Recommend(acts(core.ActionID(r.Intn(40))), k))
	}
	st := cached.Stats()
	if st.Promoted == 0 || st.Misses <= uint64(st.Entries)+uint64(st.Promoted) {
		t.Fatalf("stats %+v: the mix neither promoted nor recycled", st)
	}
	sh := &cached.shards[0]
	if st.Entries > 16 || st.Probation > sh.probCap {
		t.Fatalf("stats %+v: over the capacity of 16 or the probation cap of %d", st, sh.probCap)
	}
	for _, seg := range []*list.List{sh.probation, sh.main} {
		for el := seg.Front(); el != nil; el = el.Next() {
			if l := el.Value.(*cacheEntry).list; cap(l) != len(l) || len(l) > k {
				t.Fatalf("stored list has len %d cap %d, want cap == len ≤ %d", len(l), cap(l), k)
			}
		}
	}
	for _, l := range returned {
		for i := range l {
			l[i] = ScoredAction{Action: -1, Score: -1}
		}
	}
	for a := core.ActionID(0); a < 40; a++ {
		if got, want := cached.Recommend(acts(a), k), (stubRecommender{}).Recommend(acts(a), k); !slices.Equal(got, want) {
			t.Fatalf("activity %d: got %v, want %v", a, got, want)
		}
	}
}

func TestCachedResultIsolation(t *testing.T) {
	lib := testlib.PaperLibrary()
	cached := NewCached(NewBreadth(lib), 8)
	first := cached.Recommend(acts(0, 1), 4)
	if len(first) == 0 {
		t.Fatal("no results")
	}
	first[0].Action = 99 // mutate the returned copy
	second := cached.Recommend(acts(0, 1), 4)
	if second[0].Action == 99 {
		t.Error("cache shares memory with callers")
	}
}

func BenchmarkCachedHit(b *testing.B) {
	lib := testlib.PaperLibrary()
	cached := NewCached(NewBreadth(lib), 64)
	h := acts(0, 1)
	cached.Recommend(h, 5) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cached.Recommend(h, 5)
	}
}

// BenchmarkCachedMiss times a miss of one-shot activities over a stub inner
// recommender: what the cache itself costs a query it never serves again.
func BenchmarkCachedMiss(b *testing.B) {
	cached := NewCached(stubRecommender{}, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cached.Recommend(acts(10, core.ActionID(11+i)), 10)
	}
}

func TestCachedConcurrent(t *testing.T) {
	lib := testlib.PaperLibrary()
	cached := NewCached(NewBreadth(lib), 4)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				h := acts(core.ActionID(j % 6))
				if got := cached.Recommend(h, 3); len(got) == 0 && len(lib.Candidates(h)) > 0 {
					t.Errorf("empty result for %v", h)
				}
			}
		}(i)
	}
	wg.Wait()
}
