package strategy

import (
	"context"
	"sort"
	"sync/atomic"

	"goalrec/internal/core"
)

// The block-max scan: Focus's rank source on a size-sorted (impact-ordered)
// library (see DESIGN.md, "Bounds & pruning"). It keeps the floor of a
// bounded selection — the root of each shard's top-m implementation heap —
// and skips work that provably cannot reach it: the floor turns into an
// implementation-id cutoff that ends the scan (sizes are non-decreasing in
// id, so past it nothing can rank), and before the cutoff whole block
// segments are skipped when their best-case completeness/closeness — from
// the block-max |A_p| metadata and the chunk's active-row overlap bound —
// falls strictly below the floor.
//
// All skip tests are strict (<) and computed in integers — so the scan's
// ranking is bit-identical to the counter kernel's under the total
// implementation order.

// PruneStats aggregates the block-max scan's effectiveness counters across
// queries. All counters are cumulative and safe for concurrent use; a nil
// *PruneStats is a valid sink that records nothing.
type PruneStats struct {
	// BlocksSkipped / BlocksTotal count the posting-row block segments the
	// scan proved irrelevant versus all segments it considered.
	BlocksSkipped atomic.Int64
	BlocksTotal   atomic.Int64
	// ImplsScored counts implementations whose materialized counters were
	// actually turned into scores; ImplsAssociated counts the posting
	// entries a kernel pass would accumulate (Σ_{a∈H} |IS(a)| per query),
	// the denominator of the work-saved ratio.
	ImplsScored     atomic.Int64
	ImplsAssociated atomic.Int64
}

// PruneStatsSnapshot is a point-in-time copy of the counters, shaped for
// JSON metrics output.
type PruneStatsSnapshot struct {
	BlocksSkipped   int64 `json:"blocks_skipped"`
	BlocksTotal     int64 `json:"blocks_total"`
	ImplsScored     int64 `json:"impls_scored"`
	ImplsAssociated int64 `json:"impls_associated"`
}

// Snapshot returns a consistent-enough copy of the counters (each counter is
// read atomically; the set is not a single linearization point).
func (s *PruneStats) Snapshot() PruneStatsSnapshot {
	if s == nil {
		return PruneStatsSnapshot{}
	}
	return PruneStatsSnapshot{
		BlocksSkipped:   s.BlocksSkipped.Load(),
		BlocksTotal:     s.BlocksTotal.Load(),
		ImplsScored:     s.ImplsScored.Load(),
		ImplsAssociated: s.ImplsAssociated.Load(),
	}
}

// pruneTally is the shard-local accumulator: hot loops bump plain ints and
// flush once, so the shared atomics never sit in a scan's inner loop.
type pruneTally struct {
	blocksSkipped, blocksTotal, implsScored int64
}

// add flushes a tally into the shared counters. A nil receiver records
// nothing.
func (s *PruneStats) add(t *pruneTally) {
	if s == nil {
		return
	}
	if t.blocksSkipped != 0 {
		s.BlocksSkipped.Add(t.blocksSkipped)
	}
	if t.blocksTotal != 0 {
		s.BlocksTotal.Add(t.blocksTotal)
	}
	if t.implsScored != 0 {
		s.ImplsScored.Add(t.implsScored)
	}
}

// prunedChunkIDs is the width, in implementation ids, of the scan's first
// chunk; each later chunk doubles it. Chunks partition the id space, so every
// counter increment an implementation receives lands inside its own chunk —
// which is what makes the per-chunk active-row count a sound overlap bound.
const prunedChunkIDs = 8192

// focusFloor is the cross-shard score floor. Shards publish their local
// heap root once full and adopt the tighter of local and global at chunk
// boundaries; the floor only ever tightens, so a skip decided against any
// published value stays valid.
//
// Completeness packs the root's (overlap, |A_p|) pair as (c<<32)|n — both
// fit in 32 bits and n ≥ 1 keeps a set floor nonzero — and compares ratios
// by integer cross-multiplication. Closeness stores the root's missing
// count (≥ 1; smaller is tighter).
type focusFloor struct {
	cmp atomic.Uint64
	cl  atomic.Uint64
}

// publishCmp and publishCl report whether the call actually tightened the
// floor; the cross-node share counts tightenings for the scatter metrics.
func (g *focusFloor) publishCmp(c, n int64) bool {
	packed := uint64(c)<<32 | uint64(n)
	for {
		cur := g.cmp.Load()
		if cur != 0 {
			cc, cn := int64(cur>>32), int64(cur&0xffffffff)
			if c*cn <= cc*n {
				return false // current floor is at least as tight
			}
		}
		if g.cmp.CompareAndSwap(cur, packed) {
			return true
		}
	}
}

func (g *focusFloor) publishCl(missing int64) bool {
	for {
		cur := g.cl.Load()
		if cur != 0 && int64(cur) <= missing {
			return false
		}
		if g.cl.CompareAndSwap(cur, uint64(missing)) {
			return true
		}
	}
}

// prunedRow is one posting row of the pruned Focus scan: the zero-copy row
// view and its block-max metadata. Positions are absolute within the full row
// so that position/PostingBlockEntries always indexes the metadata.
type prunedRow struct {
	row      []core.ImplID
	blk      core.PostingBlocks
	pos, end int
}

// prunedPass runs one bounded-selection scan at heap size m and returns the
// concatenated shard heaps plus whether anything was pruned (a block skip or
// a heap eviction/rejection — i.e. whether any scored or skippable
// implementation was left out of the merge).
//
// ext, when non-nil, is an externally injected floor (the cross-node
// broadcast): it is adopted alongside the pass-local floor but never
// published to. It must bound the global k-th emission key independently of
// m — unlike the pass-local floor, which is only valid within its own pass
// and is created fresh here each call.
func (f *Focus) prunedPass(ctx context.Context, h []core.ActionID, workers, m int, s *focusScratch, ext *focusFloor) ([]rankedImpl, bool, error) {
	numImpls := f.lib.NumImplementations()
	s.shards(workers, numImpls)
	s.shardRanked(workers)
	var gf focusFloor
	var pruned atomic.Bool
	err := fanOutShards(ctx, numImpls, workers, func(shard int, lo, hi core.ImplID, tick *ticker) error {
		p, err := f.prunedShardScan(h, lo, hi, m, s, shard, &gf, ext, tick)
		if p {
			pruned.Store(true)
		}
		return err
	})
	if err != nil {
		return nil, false, err
	}
	return s.concat(workers), pruned.Load(), nil
}

// prunedShardScan scans [lo, hi) in id chunks, accumulating counters block
// segment by block segment and skipping segments whose best achievable score
// is strictly below the current floor. The m best implementations of the
// shard end up in s.perShard[shard]. Counters touched by the shard are
// re-zeroed before it returns — per chunk on the way, and for the partial
// chunk on abort — so the pooled scratch always comes back clean.
//
// Soundness of the skip tests: every counter increment for an implementation
// p of the current chunk comes from a row with an entry in the chunk, so
// |A_p ∩ H| ≤ active. With L = min |A_p| over the block,
//
//	completeness ≤ active/L  — skip iff active·fN < fC·L (floor fC/fN),
//	closeness    ≤ 1/(L−active) — skip iff L−active > fMiss (floor 1/fMiss),
//
// both evaluated in int64, so no float rounding can ever skip a true top-m
// implementation. The floor is a full heap's root, i.e. the m-th best of a
// subset of true-score-dominating entries, hence a lower bound on the global
// m-th best; strict inequality keeps tie layers unpruned.
func (f *Focus) prunedShardScan(h []core.ActionID, lo, hi core.ImplID, m int,
	s *focusScratch, shard int, gf, ext *focusFloor, tick *ticker) (bool, error) {

	lib := f.lib
	closeness := f.measure == Closeness
	var tally pruneTally
	defer f.stats.add(&tally)

	rows := make([]prunedRow, 0, len(h))
	for _, a := range h {
		row := lib.ImplsOfAction(a)
		pos := sort.Search(len(row), func(i int) bool { return row[i] >= lo })
		end := pos + sort.Search(len(row)-pos, func(i int) bool { return row[pos+i] >= hi })
		if pos == end {
			continue
		}
		rows = append(rows, prunedRow{row: row, blk: lib.ActionPostingBlocks(a), pos: pos, end: end})
	}

	heap := s.perShard[shard]
	touched := s.touched[shard]
	pruned := false
	full := false
	// Effective floor, ints only; a zero denominator/missing means unset.
	var fC, fN, fMiss int64

	adoptCl := func(g uint64) {
		if g != 0 {
			if miss := int64(g); fMiss == 0 || miss < fMiss {
				fMiss = miss
			}
		}
	}
	adoptCmp := func(packed uint64) {
		if packed != 0 {
			c, n := int64(packed>>32), int64(packed&0xffffffff)
			if fN == 0 || c*fN > fC*n {
				fC, fN = c, n
			}
		}
	}
	adoptGlobal := func() {
		if closeness {
			adoptCl(gf.cl.Load())
			if ext != nil {
				adoptCl(ext.cl.Load())
			}
			return
		}
		adoptCmp(gf.cmp.Load())
		if ext != nil {
			adoptCmp(ext.cmp.Load())
		}
	}
	publishRoot := func() {
		root := heap[0]
		if closeness {
			miss := int64(root.missing)
			if fMiss == 0 || miss < fMiss {
				fMiss = miss
			}
			gf.publishCl(miss)
			return
		}
		n := int64(lib.ImplLen(root.id))
		c := n - int64(root.missing)
		if fN == 0 || c*fN > fC*n {
			fC, fN = c, n
		}
		gf.publishCmp(c, n)
	}

	// Sizes are non-decreasing in id, so the floor yields a global id
	// cutoff: an implementation's overlap is at most len(rows), so one
	// with |A_p| − len(rows) strictly too many missing actions (closeness) or
	// len(rows)/|A_p| strictly below the floor ratio (completeness) can never
	// rank — and neither can any later id, whose size is at least as large.
	// The scan then simply ends at the cutoff instead of block-testing the
	// whole tail. Both cutoff tests mirror the per-block tests: strict, and
	// in integers.
	effHi := hi
	rmax := int64(len(rows))
	// The floor only ever tightens, and both cutoff predicates are monotone
	// in id, so an unchanged floor reproduces the previous cutoff exactly —
	// re-searching is pure overhead. clamped* remember the floor of the last
	// search.
	var clampedMiss, clampedC, clampedN int64
	clampEffHi := func(chunkLo core.ImplID) {
		n := int(effHi - chunkLo)
		if n <= 0 {
			return
		}
		if closeness {
			if fMiss == 0 || fMiss == clampedMiss {
				return
			}
			clampedMiss = fMiss
			effHi = chunkLo + core.ImplID(sort.Search(n, func(i int) bool {
				return int64(lib.ImplLen(chunkLo+core.ImplID(i)))-rmax > fMiss
			}))
			return
		}
		if fN == 0 || (fC == clampedC && fN == clampedN) {
			return
		}
		clampedC, clampedN = fC, fN
		effHi = chunkLo + core.ImplID(sort.Search(n, func(i int) bool {
			return rmax*fN < fC*int64(lib.ImplLen(chunkLo+core.ImplID(i)))
		}))
	}

	// Chunk width doubles: the global cutoff does the pruning, per-chunk work
	// is pure overhead, and the floor the cutoff derives from converges within
	// the first few (smallest-implementation) chunks. clampEffHi at every
	// chunk start bounds how far a widened chunk can overshoot the final
	// cutoff.
	width := core.ImplID(prunedChunkIDs)
	var err error
scan:
	for chunkLo := lo; chunkLo < effHi; {
		adoptGlobal()
		clampEffHi(chunkLo)
		if chunkLo >= effHi {
			break
		}
		chunkHi := chunkLo + width
		width *= 2
		if chunkHi > effHi {
			chunkHi = effHi
		}

		// Chunk overlap bound: rows holding at least one entry in the chunk.
		active := int64(0)
		for i := range rows {
			if r := &rows[i]; r.pos < r.end && r.row[r.pos] < chunkHi {
				active++
			}
		}
		if active == 0 {
			chunkLo = chunkHi
			continue
		}

		for i := range rows {
			r := &rows[i]
			row := r.row
			for r.pos < r.end && row[r.pos] < chunkHi {
				j := r.pos / core.PostingBlockEntries
				blockEnd := (j + 1) * core.PostingBlockEntries
				if blockEnd > r.end {
					blockEnd = r.end
				}
				segEnd := blockEnd
				if row[blockEnd-1] >= chunkHi {
					p := r.pos
					segEnd = p + sort.Search(blockEnd-p, func(i int) bool { return row[p+i] >= chunkHi })
				}
				tally.blocksTotal++
				L := int64(r.blk.MinLen[j])
				var skip bool
				if closeness {
					skip = fMiss != 0 && L-active > fMiss
				} else {
					skip = fN != 0 && active*fN < fC*L
				}
				if skip {
					tally.blocksSkipped++
					pruned = true
				} else {
					touched = core.AccumulateOverlapRow(row[r.pos:segEnd], s.cnt, touched)
				}
				n := segEnd - r.pos
				r.pos = segEnd
				if err = tick.tick(n); err != nil {
					break scan
				}
			}
		}

		// Score and clear the chunk's implementations; later chunks see any
		// floor this chunk tightened.
		tally.implsScored += int64(len(touched))
		for _, p := range touched {
			cand, ok := focusRank(f.measure, p, lib.ImplLen(p), int(s.cnt[p]))
			s.cnt[p] = 0
			if !ok {
				continue
			}
			if !full {
				heap = append(heap, cand)
				if len(heap) == m {
					for i := m/2 - 1; i >= 0; i-- {
						implSiftDown(heap, i)
					}
					full = true
					publishRoot()
				}
				continue
			}
			if implRanksBefore(heap[0], cand) {
				pruned = true
				continue
			}
			heap[0] = cand
			implSiftDown(heap, 0)
			pruned = true
			publishRoot()
		}
		touched = touched[:0]
		chunkLo = chunkHi
	}
	if err == nil && effHi < hi {
		// The cutoff ended the scan early; every remaining posting entry was
		// excluded wholesale. Account for them as skipped blocks and mark the
		// pass pruned iff anything was actually left out.
		for i := range rows {
			r := &rows[i]
			if r.pos < r.end {
				segs := int64(r.end-r.pos+core.PostingBlockEntries-1) / int64(core.PostingBlockEntries)
				tally.blocksTotal += segs
				tally.blocksSkipped += segs
				pruned = true
			}
		}
	}
	if err != nil {
		for _, p := range touched {
			s.cnt[p] = 0
		}
		touched = touched[:0]
	}
	s.perShard[shard] = heap
	s.touched[shard] = touched
	return pruned, err
}
