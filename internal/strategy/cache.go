package strategy

import (
	"container/list"
	"context"
	"encoding/binary"
	"sync"
	"sync/atomic"

	"goalrec/internal/core"
	"goalrec/internal/intset"
)

// maxCacheShards bounds the number of independently locked LRU segments and
// minShardCap is the smallest per-segment capacity worth splitting into:
// keys spread by hash, so at full sharding concurrent queries contend on one
// mutex only 1/16 of the time, while tiny caches stay single-shard and keep
// exact global LRU order.
const (
	maxCacheShards = 16
	minShardCap    = 64
)

// Cached wraps a Recommender with a bounded LRU cache keyed by the
// normalized (activity, k) pair. Recommendation queries in serving workloads
// repeat heavily (the same cart, the same wardrobe), and every strategy is
// deterministic over an immutable library, so caching is sound. The wrapper
// is safe for concurrent use.
//
// The cache is sharded: the compact binary query key is FNV-1a hashed once,
// the hash picks one of up to maxCacheShards independent LRU segments, and
// only that segment's mutex is taken — concurrent hits stop serializing on a
// single lock. Hit/miss counters are atomics, so they stay exact without
// joining any lock.
type Cached struct {
	inner Recommender

	shards []cacheShard
	mask   uint64 // len(shards) - 1; shard count is a power of two

	hits, misses atomic.Uint64
}

type cacheShard struct {
	mu  sync.Mutex
	cap int
	lru *list.List // of *cacheEntry, front = most recent
	byK map[string]*list.Element
}

// cacheEntry owns its list: a private copy with cap == len, so an entry pins
// exactly the k results it serves and never a recommender's scoring buffers.
type cacheEntry struct {
	key  string
	list []ScoredAction
}

// NewCached wraps inner with an LRU of the given total capacity (entries),
// split evenly across power-of-two many shards — as many as keep each shard
// at minShardCap entries, up to maxCacheShards. capacity ≤ 0 selects 1024.
func NewCached(inner Recommender, capacity int) *Cached {
	if capacity <= 0 {
		capacity = 1024
	}
	n := 1
	for n < maxCacheShards && capacity/(n*2) >= minShardCap {
		n *= 2
	}
	perShard := (capacity + n - 1) / n
	c := &Cached{inner: inner, shards: make([]cacheShard, n), mask: uint64(n - 1)}
	for i := range c.shards {
		c.shards[i] = cacheShard{
			cap: perShard,
			lru: list.New(),
			byK: make(map[string]*list.Element, perShard),
		}
	}
	return c
}

// Name implements Recommender.
func (c *Cached) Name() string { return c.inner.Name() }

// Underlying returns the wrapped recommender. View queries (RecommendView)
// unwrap the cache: a materialized CounterView already is the per-user
// cache, and its results must not be keyed by activity across epochs.
func (c *Cached) Underlying() Recommender { return c.inner }

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
	sh := &c.shards[hash&c.mask]

	sh.mu.Lock()
	// The map index with string(key) is a lookup-only conversion: Go elides
	// the string allocation, so a hit allocates nothing but the result copy.
	if el, ok := sh.byK[string(key)]; ok {
		sh.lru.MoveToFront(el)
		cached := el.Value.(*cacheEntry).list
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

	// The entry's private copy, made before taking the lock. The computed
	// list itself goes to the caller.
	var own []ScoredAction
	if len(list) > 0 {
		own = make([]ScoredAction, len(list))
		copy(own, list)
	}

	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, raced := sh.byK[string(key)]; !raced {
		ck := string(key) // materialize only when actually inserting
		sh.byK[ck] = sh.lru.PushFront(&cacheEntry{key: ck, list: own})
		for sh.lru.Len() > sh.cap {
			oldest := sh.lru.Back()
			sh.lru.Remove(oldest)
			delete(sh.byK, oldest.Value.(*cacheEntry).key)
		}
	}
	return list, nil
}

// Stats returns cache hits and misses so far.
func (c *Cached) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Len returns the current number of cached entries.
func (c *Cached) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.lru.Len()
		sh.mu.Unlock()
	}
	return n
}
