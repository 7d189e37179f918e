package core

import (
	"sync"
	"sync/atomic"
)

// This file implements the process-wide decoded-block cache behind the
// compressed-posting access surface (postings.go). Entries are immutable
// decoded posting blocks keyed by {source id, global block index}, where the
// source id uniquely identifies one compressedPostings blob for the life of
// the process (snapshot.go assigns it at open). Because a block's decoded
// content is fully determined by that immutable blob, a key can never resolve
// to stale data across ingest or epoch swaps: a new snapshot gets a new
// source id, while overlay-extended epochs share their base's blob — and its
// still-valid cached blocks — by construction.
//
// Admission is a TinyLFU-style doorkeeper: a block is inserted only on its
// second touch within a doorkeeper generation, so one-pass scans (compaction,
// cold benchmarks) stream through without evicting the resident hot set, and
// the common miss decodes straight into the caller's pooled buffer exactly as
// before — the cache adds no allocation to unadmitted reads. Eviction is LRU
// under a per-shard byte budget. See DESIGN.md "Paged serving & block cache".

// blockCacheShards is the shard count; keys are spread by a mixed hash so
// per-shard mutexes rarely contend.
const blockCacheShards = 16

// blockEntryOverhead approximates the per-entry bookkeeping bytes (entry
// struct, map cell, slice header) counted against the byte budget on top of
// the decoded payload.
const blockEntryOverhead = 96

type blockKey struct {
	src uint64 // compressedPostings identity (cp.id)
	blk uint32 // global block index within src
}

type blockEntry struct {
	key        blockKey
	row        []ImplID // immutable after insert
	prev, next *blockEntry
}

type blockShard struct {
	mu      sync.Mutex
	entries map[blockKey]*blockEntry
	head    *blockEntry // most recently used
	tail    *blockEntry // eviction victim
	bytes   int64
	budget  int64
	door    map[blockKey]struct{} // doorkeeper: keys seen once this generation
	doorCap int
}

// BlockCacheStats is a point-in-time snapshot of the process block cache
// counters, surfaced through /v1/metrics.
type BlockCacheStats struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Admitted    uint64 `json:"admitted"`
	Evicted     uint64 `json:"evicted"`
	Entries     int64  `json:"entries"`
	Bytes       int64  `json:"bytes"`
	BudgetBytes int64  `json:"budget_bytes"`
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s BlockCacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// BlockCache is a sharded, byte-budgeted cache of decoded posting blocks.
type BlockCache struct {
	shards   [blockCacheShards]blockShard
	budget   int64
	hits     atomic.Uint64
	misses   atomic.Uint64
	admitted atomic.Uint64
	evicted  atomic.Uint64
}

// newBlockCache returns a cache bounded by budget bytes across all shards.
func newBlockCache(budget int64) *BlockCache {
	c := &BlockCache{budget: budget}
	per := budget / blockCacheShards
	if per < 1 {
		per = 1
	}
	// Doorkeeper generations track roughly twice the resident entry count so
	// a hot block's first and second touch land in the same generation.
	doorCap := int(2 * per / (4*PostingBlockEntries + blockEntryOverhead))
	if doorCap < 64 {
		doorCap = 64
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.budget = per
		s.doorCap = doorCap
		s.entries = make(map[blockKey]*blockEntry)
		s.door = make(map[blockKey]struct{})
	}
	return c
}

func (k blockKey) hash() uint64 {
	// splitmix64-style mix over both fields.
	h := k.src ^ uint64(k.blk)*0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

func (c *BlockCache) shard(k blockKey) *blockShard {
	return &c.shards[k.hash()%blockCacheShards]
}

// getOrAdmit looks up k. On a hit it returns the cached block (row != nil).
// On a miss it consults the doorkeeper: admit reports whether the caller
// should decode the block into a fresh slice and insert it; when false the
// caller decodes into its own pooled buffer as if the cache did not exist.
func (c *BlockCache) getOrAdmit(k blockKey) (row []ImplID, admit bool) {
	s := c.shard(k)
	s.mu.Lock()
	if e := s.entries[k]; e != nil {
		s.moveToFront(e)
		s.mu.Unlock()
		c.hits.Add(1)
		return e.row, false
	}
	// Doorkeeper: admit on the second touch within a generation.
	if _, seen := s.door[k]; seen {
		delete(s.door, k)
		admit = true
	} else {
		if len(s.door) >= s.doorCap {
			clear(s.door)
		}
		s.door[k] = struct{}{}
	}
	s.mu.Unlock()
	c.misses.Add(1)
	return nil, admit
}

// insert stores the decoded block for k, evicting LRU entries to stay within
// the shard budget. row must be immutable from this point on. A concurrent
// duplicate insert keeps the resident entry.
func (c *BlockCache) insert(k blockKey, row []ImplID) {
	cost := int64(cap(row))*4 + blockEntryOverhead
	s := c.shard(k)
	s.mu.Lock()
	if e := s.entries[k]; e != nil {
		s.moveToFront(e)
		s.mu.Unlock()
		return
	}
	e := &blockEntry{key: k, row: row}
	s.entries[k] = e
	s.pushFront(e)
	s.bytes += cost
	var evicted uint64
	for s.bytes > s.budget && s.tail != nil && s.tail != e {
		evicted++
		s.removeLocked(s.tail)
	}
	s.mu.Unlock()
	c.admitted.Add(1)
	if evicted > 0 {
		c.evicted.Add(evicted)
	}
}

// purgeSrc drops every entry of source src — called when a snapshot closes so
// a dead mapping's blocks stop occupying budget.
func (c *BlockCache) purgeSrc(src uint64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k, e := range s.entries {
			if k.src == src {
				s.removeLocked(e)
			}
		}
		for k := range s.door {
			if k.src == src {
				delete(s.door, k)
			}
		}
		s.mu.Unlock()
	}
}

func (s *blockShard) pushFront(e *blockEntry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *blockShard) moveToFront(e *blockEntry) {
	if s.head == e {
		return
	}
	// Unlink.
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	if s.tail == e {
		s.tail = e.prev
	}
	s.pushFront(e)
}

func (s *blockShard) removeLocked(e *blockEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
	delete(s.entries, e.key)
	s.bytes -= int64(cap(e.row))*4 + blockEntryOverhead
}

// stats sums the per-shard state into a BlockCacheStats.
func (c *BlockCache) stats() BlockCacheStats {
	st := BlockCacheStats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Admitted:    c.admitted.Load(),
		Evicted:     c.evicted.Load(),
		BudgetBytes: c.budget,
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += int64(len(s.entries))
		st.Bytes += s.bytes
		s.mu.Unlock()
	}
	return st
}

// blockCachePtr holds the active process cache; nil means disabled (the
// default — daemons opt in via SetBlockCacheBytes).
var blockCachePtr atomic.Pointer[BlockCache]

// blockCacheSrcSeq hands out compressedPostings source ids; 0 is reserved for
// "uncacheable".
var blockCacheSrcSeq atomic.Uint64

// SetBlockCacheBytes (re)configures the process-wide decoded-block cache with
// the given byte budget. A budget <= 0 disables the cache entirely; changing
// the budget replaces the cache, discarding cached blocks but keeping
// nothing stale (entries are immutable). Safe to call concurrently with
// readers.
func SetBlockCacheBytes(n int64) {
	if n <= 0 {
		blockCachePtr.Store(nil)
		return
	}
	blockCachePtr.Store(newBlockCache(n))
}

// BlockCacheMetrics returns the current cache counters; the zero value when
// the cache is disabled.
func BlockCacheMetrics() BlockCacheStats {
	c := blockCachePtr.Load()
	if c == nil {
		return BlockCacheStats{}
	}
	return c.stats()
}

// activeBlockCache returns the configured cache or nil.
func activeBlockCache() *BlockCache { return blockCachePtr.Load() }

// cachedBlock resolves global block g of l's compressed postings through the
// cache: it returns a shared immutable decoded block on a hit, decodes,
// inserts and returns a fresh block when the doorkeeper admits the key, and
// returns nil otherwise (the caller decodes into its own buffer). prev is the
// Last value of block g-1 and n the block's entry count.
func (l *Library) cachedBlock(c *BlockCache, g int, prev ImplID, n int) []ImplID {
	if c == nil || l.cp.id == 0 {
		return nil
	}
	k := blockKey{src: l.cp.id, blk: uint32(g)}
	row, admit := c.getOrAdmit(k)
	if row != nil {
		return row
	}
	if !admit {
		return nil
	}
	blob := l.cp.blob[l.cp.blobOff[g]:l.cp.blobOff[g+1]]
	row = decodeBlockAppend(blob, prev, n, make([]ImplID, 0, n))
	c.insert(k, row)
	return row
}
