package strategy

import (
	"container/list"
	"context"
	"encoding/binary"
	"math/bits"
	"sync"
	"sync/atomic"

	"goalrec/internal/core"
	"goalrec/internal/intset"
)

// maxCacheShards bounds the number of independently locked segments and
// minShardCap is the smallest per-shard capacity worth splitting into: keys
// spread by hash, so at full sharding concurrent queries contend on one mutex
// only 1/16 of the time, while tiny caches stay single-shard.
const (
	maxCacheShards = 16
	minShardCap    = 64
)

// Cached wraps a Recommender with a bounded cache keyed by the normalized
// (activity, k) pair. Recommendation queries in serving workloads repeat
// heavily (the same cart, the same wardrobe), and every strategy is
// deterministic over an immutable library, so caching is sound. The wrapper
// is safe for concurrent use.
//
// The cache is sharded: the compact binary query key is FNV-1a hashed once,
// the hash picks one of up to maxCacheShards independent shards, and only
// that shard's mutex is taken — concurrent hits stop serializing on a single
// lock. Counters are atomics, so they stay exact without joining any lock.
//
// Each shard is a segmented LRU: a first sighting enters a small probation
// segment (an eighth of the shard), and a hit there promotes the entry to
// the main LRU. A one-shot activity — most of them, when an activity is one
// user's own action set — is evicted from probation without ever displacing
// an entry that repeated, and a miss on a full probation recycles its
// least-recent entry in place, so a flood of distinct activities keeps an
// eighth of the capacity alive and allocates only its keys.
type Cached struct {
	inner Recommender

	shards []cacheShard
	// shift is 64 - log2(len(shards)), whose count is a power of two: a
	// query's shard is its hash's top bits. FNV-1a's multiply carries every input bit up,
	// never down, so the low bits of keys that differ little spread poorly.
	shift uint

	hits, misses, promoted atomic.Uint64
}

type cacheShard struct {
	mu               sync.Mutex
	probCap, mainCap int
	probation, main  *list.List // of *cacheEntry, front = most recent
	byK              map[string]*list.Element
}

// cacheEntry owns its list: a private copy with cap == len, so an entry pins
// exactly the k results it serves and never a recommender's scoring buffers.
type cacheEntry struct {
	key  string
	list []ScoredAction
	main bool // the segment holding it
}

// CacheStats is a snapshot of a cache's contents and counters. Entries
// counts both segments, Probation the entries not yet hit since they were
// stored; Promoted counts the hits that moved an entry into the main LRU.
type CacheStats struct {
	Entries   int    `json:"entries"`
	Probation int    `json:"probation"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Promoted  uint64 `json:"promoted"`
}

// NewCached wraps inner with a cache of the given total capacity (entries),
// split evenly across power-of-two many shards — as many as keep each shard
// at minShardCap entries, up to maxCacheShards — and within each shard an
// eighth (at least one entry) for probation and the rest for the main LRU.
// capacity ≤ 0 selects 1024; a shard holds at least 2 entries, one per
// segment.
func NewCached(inner Recommender, capacity int) *Cached {
	if capacity <= 0 {
		capacity = 1024
	}
	n := 1
	for n < maxCacheShards && capacity/(n*2) >= minShardCap {
		n *= 2
	}
	perShard := max(2, (capacity+n-1)/n)
	probCap := max(1, perShard/8)
	c := &Cached{inner: inner, shards: make([]cacheShard, n), shift: uint(64 - bits.TrailingZeros(uint(n)))}
	for i := range c.shards {
		c.shards[i] = cacheShard{
			probCap:   probCap,
			mainCap:   perShard - probCap,
			probation: list.New(),
			main:      list.New(),
			byK:       make(map[string]*list.Element, perShard),
		}
	}
	return c
}

// Name implements Recommender.
func (c *Cached) Name() string { return c.inner.Name() }

// cacheKey canonicalizes the query into a compact binary key: k as 8
// little-endian bytes, then each action id as 4. The activity is sorted and
// deduplicated by the caller, so permutations share an entry. The key is
// appended to buf (reusing its capacity) and returned alongside its FNV-1a
// hash — no per-query string formatting.
func cacheKey(buf []byte, h []core.ActionID, k int) ([]byte, uint64) {
	buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(int64(k)))
	for _, a := range h {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(a))
	}
	const (
		fnvOffset64 = 14695981039346656037
		fnvPrime64  = 1099511628211
	)
	hash := uint64(fnvOffset64)
	for _, b := range buf {
		hash = (hash ^ uint64(b)) * fnvPrime64
	}
	return buf, hash
}

// shard is the shard of the query whose key hashed to hash.
func (c *Cached) shard(hash uint64) *cacheShard { return &c.shards[hash>>c.shift] }

// Recommend implements Recommender.
func (c *Cached) Recommend(activity []core.ActionID, k int) []ScoredAction {
	out, _ := c.RecommendContext(context.Background(), activity, k)
	return out
}

// RecommendContext implements ContextRecommender. A cache hit is served
// regardless of the context (it costs nothing to return); a miss delegates
// to the inner recommender with ctx, and aborted queries are never cached —
// a canceled partial result must not poison later complete queries.
func (c *Cached) RecommendContext(ctx context.Context, activity []core.ActionID, k int) ([]ScoredAction, error) {
	h := intset.FromUnsorted(intset.Clone(activity))
	var kb [128]byte
	key, hash := cacheKey(kb[:0], h, k)
	sh := c.shard(hash)

	sh.mu.Lock()
	// The map index with string(key) is a lookup-only conversion: Go elides
	// the string allocation, so a hit allocates nothing but the result copy.
	if el, ok := sh.byK[string(key)]; ok {
		e := el.Value.(*cacheEntry)
		if e.main {
			sh.main.MoveToFront(el)
		} else {
			sh.promote(el)
			c.promoted.Add(1)
		}
		// The entry is in main now, and main entries are dropped, never
		// recycled, so its list stays as it is after the unlock.
		cached := e.list
		sh.mu.Unlock()
		c.hits.Add(1)
		// Return a copy: callers may re-sort or truncate.
		return append([]ScoredAction(nil), cached...), nil
	}
	sh.mu.Unlock()
	c.misses.Add(1)

	list, err := RecommendContext(ctx, c.inner, h, k)
	if err != nil {
		return list, err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, raced := sh.byK[string(key)]; !raced {
		sh.admit(key, list)
	}
	// The computed list itself goes to the caller; the entry holds a copy.
	return list, nil
}

// promote moves a probation entry that was hit to the front of the main
// LRU, dropping main's least-recent entry when main is over its share.
func (sh *cacheShard) promote(el *list.Element) {
	e := sh.probation.Remove(el).(*cacheEntry)
	e.main = true
	sh.byK[e.key] = sh.main.PushFront(e)
	if sh.main.Len() > sh.mainCap {
		delete(sh.byK, sh.main.Remove(sh.main.Back()).(*cacheEntry).key)
	}
}

// admit stores a first sighting at the front of probation. Once probation
// is full it recycles the least-recent probation entry in place: the key
// string is the one allocation, and the results go into the old backing
// array when it has exactly their length.
func (sh *cacheShard) admit(key []byte, results []ScoredAction) {
	if sh.probation.Len() < sh.probCap {
		ck := string(key)
		sh.byK[ck] = sh.probation.PushFront(&cacheEntry{key: ck, list: exactCopy(nil, results)})
		return
	}
	el := sh.probation.Back()
	e := el.Value.(*cacheEntry)
	delete(sh.byK, e.key)
	e.key, e.list = string(key), exactCopy(e.list, results)
	sh.probation.MoveToFront(el)
	sh.byK[e.key] = el
}

// exactCopy copies src into dst's backing array when its capacity is
// exactly len(src), and into a fresh array of that size otherwise.
func exactCopy(dst, src []ScoredAction) []ScoredAction {
	if cap(dst) != len(src) {
		dst = make([]ScoredAction, len(src))
	}
	dst = dst[:len(src)]
	copy(dst, src)
	return dst
}

// Stats returns the cache's entries per segment and its counters so far.
func (c *Cached) Stats() CacheStats {
	st := CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Promoted: c.promoted.Load()}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.Entries += sh.probation.Len() + sh.main.Len()
		st.Probation += sh.probation.Len()
		sh.mu.Unlock()
	}
	return st
}

// Len returns the current number of cached entries in both segments.
func (c *Cached) Len() int { return c.Stats().Entries }
