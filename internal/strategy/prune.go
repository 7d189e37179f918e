package strategy

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"goalrec/internal/core"
)

// Threshold-aware (bound-driven) top-k scanning for the three strategy
// families (see DESIGN.md, "Bounds & pruning"). Every pruned path keeps the
// floor of a bounded selection — Focus's top-m implementation heap, and for
// Breadth and Best Match the same selector the unpruned loops offer into,
// whose floor is −∞ until k candidates are held — and skips work that
// provably cannot reach it:
//
//   - Focus walks the posting rows in fixed-width implementation-id chunks
//     and skips whole block segments whose best-case completeness/closeness —
//     from the block-max |A_p| metadata and the chunk's active-row overlap
//     bound — falls strictly below the floor;
//   - Breadth re-ranks candidates in a MaxScore-style candidate-major walk
//     over ascending action ids, with a suffix-degree early exit once no
//     remaining candidate can beat the k-th score;
//   - Best Match orders candidates by goal degree and stops once the
//     degree-derived cosine upper bound drops below the k-th score.
//
// All skip tests are strict (<) and, where floats could round, computed in
// integers — so a pruned ranking is bit-identical to the unpruned kernel
// under the existing total tiebreak orders.

// PruneStats aggregates pruning-effectiveness counters across queries. All
// counters are cumulative and safe for concurrent use; a nil *PruneStats is a
// valid sink that records nothing.
type PruneStats struct {
	// BlocksSkipped / BlocksTotal count the posting-row block segments the
	// Focus scan proved irrelevant versus all segments it considered.
	BlocksSkipped atomic.Int64
	BlocksTotal   atomic.Int64
	// ImplsScored counts implementations whose materialized counters were
	// actually turned into scores; ImplsAssociated counts the posting
	// entries an unpruned kernel pass accumulates (Σ_{a∈H} |IS(a)| per
	// query), the denominator of the work-saved ratio.
	ImplsScored     atomic.Int64
	ImplsAssociated atomic.Int64
	// CandidatesScored / CandidatesSkipped count the candidate actions the
	// Breadth and Best Match upper-bound walks scored versus discarded.
	CandidatesScored  atomic.Int64
	CandidatesSkipped atomic.Int64
}

// PruneStatsSnapshot is a point-in-time copy of the counters, shaped for
// JSON metrics output.
type PruneStatsSnapshot struct {
	BlocksSkipped     int64 `json:"blocks_skipped"`
	BlocksTotal       int64 `json:"blocks_total"`
	ImplsScored       int64 `json:"impls_scored"`
	ImplsAssociated   int64 `json:"impls_associated"`
	CandidatesScored  int64 `json:"candidates_scored"`
	CandidatesSkipped int64 `json:"candidates_skipped"`
}

// Snapshot returns a consistent-enough copy of the counters (each counter is
// read atomically; the set is not a single linearization point).
func (s *PruneStats) Snapshot() PruneStatsSnapshot {
	if s == nil {
		return PruneStatsSnapshot{}
	}
	return PruneStatsSnapshot{
		BlocksSkipped:     s.BlocksSkipped.Load(),
		BlocksTotal:       s.BlocksTotal.Load(),
		ImplsScored:       s.ImplsScored.Load(),
		ImplsAssociated:   s.ImplsAssociated.Load(),
		CandidatesScored:  s.CandidatesScored.Load(),
		CandidatesSkipped: s.CandidatesSkipped.Load(),
	}
}

// pruneTally is the shard-local accumulator: hot loops bump plain ints and
// flush once, so the shared atomics never sit in a scan's inner loop.
type pruneTally struct {
	blocksSkipped, blocksTotal          int64
	implsScored, implsAssociated        int64
	candidatesScored, candidatesSkipped int64
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
	if t.implsAssociated != 0 {
		s.ImplsAssociated.Add(t.implsAssociated)
	}
	if t.candidatesScored != 0 {
		s.CandidatesScored.Add(t.candidatesScored)
	}
	if t.candidatesSkipped != 0 {
		s.CandidatesSkipped.Add(t.candidatesSkipped)
	}
}

// EnablePruning switches the strategy to its threshold-aware scan. Rankings
// stay bit-identical to the default kernel; stats (optional, may be nil)
// receives the effectiveness counters. It must be called before the strategy
// starts serving queries.
func (f *Focus) EnablePruning(stats *PruneStats) { f.pruning = true; f.stats = stats }

// EnablePruning switches the strategy to its threshold-aware scan. Rankings
// stay bit-identical to the default kernel; stats (optional, may be nil)
// receives the effectiveness counters. It must be called before the strategy
// starts serving queries.
func (b *Breadth) EnablePruning(stats *PruneStats) { b.pruning = true; b.stats = stats }

// EnablePruning switches the strategy to its threshold-aware scan. Rankings
// stay bit-identical to the default kernel; stats (optional, may be nil)
// receives the effectiveness counters. It must be called before the strategy
// starts serving queries.
func (bm *BestMatch) EnablePruning(stats *PruneStats) { bm.pruning = true; bm.stats = stats }

// ---------------------------------------------------------------------------
// Focus: block-max pruned counter scan
// ---------------------------------------------------------------------------

// prunedChunkIDs is the width, in implementation ids, of one Focus scan
// chunk. Chunks partition the id space, so every counter increment an
// implementation receives lands inside its own chunk — which is what makes
// the per-chunk active-row count a sound overlap bound.
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

// prunedRow is one posting row of the pruned Focus scan. Positions are
// absolute within the full row so that position/PostingBlockEntries always
// indexes the row's block-max metadata. raw is the zero-copy row view and is
// what the hot loop indexes whenever the library stores postings
// uncompressed; for block-compressed (mmap-backed) rows raw is nil and the
// cursor decodes lazily instead — segment-boundary tests are answered from
// the block-max metadata, so a block the scan skips is never decompressed.
type prunedRow struct {
	raw      []core.ImplID
	cur      core.PostingRowCursor
	blk      core.PostingBlocks
	pos, end int
}

// recommendPruned is Focus's threshold-aware path. Each pass keeps only the
// m best implementations per shard; when deduplication starves the emission
// walk, m widens and the pass reruns, and a pass that pruned nothing is
// complete by construction, so the loop always terminates with the same
// output as the unpruned kernel.
func (f *Focus) recommendPruned(ctx context.Context, h []core.ActionID, stream, k int) ([]ScoredAction, error) {
	numImpls := f.lib.NumImplementations()
	workers := f.conc.workersFor(stream, numImpls)
	s := f.pool.Get().(*focusScratch)
	defer f.pool.Put(s)
	if len(s.cnt) < numImpls {
		s.cnt = make([]int32, numImpls)
	}
	if f.stats != nil {
		f.stats.ImplsAssociated.Add(int64(stream))
	}

	for m := k; ; m *= 4 {
		merged, prunedAny, err := f.prunedPass(ctx, h, workers, m, s, nil)
		if err != nil {
			return nil, err
		}
		tick := newTicker(ctx)
		if len(merged) <= m {
			// A pruned pass can only fall at or below m entries when either
			// nothing was pruned (the merge is the complete scored set) or
			// exactly one shard heap filled (the merge is exactly the true
			// top m): sorting the merge is exact in both cases.
			sortRankedImpls(merged)
			out, err := f.emit(merged, h, k, &tick)
			if err != nil || len(out) == k || !prunedAny {
				return out, err
			}
			continue // true top m emitted but starved: rescan wider
		}
		// Shard heaps may retain "junk" — implementations undercounted by a
		// skip — but every such score is strictly below the floor that
		// justified the skip, hence strictly below the true m-th best: exact
		// selection under the total order removes them all.
		s.sel = append(s.sel[:0], merged...)
		out, err := f.emit(topMRankedImpls(s.sel, m), h, k, &tick)
		if err != nil || len(out) == k {
			return out, err
		}
		if !prunedAny {
			// Nothing was pruned, so the merge is the complete scored set:
			// widen the selection in place, exactly like the unpruned path,
			// instead of rescanning.
			for sm := m * 4; ; sm *= 4 {
				if sm >= len(merged) {
					sortRankedImpls(merged)
					return f.emit(merged, h, k, &tick)
				}
				s.sel = append(s.sel[:0], merged...)
				out, err := f.emit(topMRankedImpls(s.sel, sm), h, k, &tick)
				if err != nil || len(out) == k {
					return out, err
				}
			}
		}
	}
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
	s.shards(workers)
	ranked := s.shardRanked(workers)
	var gf focusFloor
	prunedBy := make([]bool, workers)

	var firstErr error
	if workers == 1 {
		tick := newTicker(ctx)
		prunedBy[0], firstErr = f.prunedShardScan(h, 0, core.ImplID(numImpls), m, s, 0, &gf, ext, &tick)
	} else {
		chunk := (numImpls + workers - 1) / workers
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := core.ImplID(w * chunk)
			hi := lo + core.ImplID(chunk)
			if lo > core.ImplID(numImpls) {
				lo = core.ImplID(numImpls)
			}
			if hi > core.ImplID(numImpls) {
				hi = core.ImplID(numImpls)
			}
			wg.Add(1)
			go func(w int, lo, hi core.ImplID) {
				defer wg.Done()
				tick := newTicker(ctx)
				prunedBy[w], errs[w] = f.prunedShardScan(h, lo, hi, m, s, w, &gf, ext, &tick)
			}(w, lo, hi)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				firstErr = err
				break
			}
		}
	}
	if firstErr != nil {
		return nil, false, firstErr
	}
	all := s.merged[:0]
	pruned := false
	for w := 0; w < workers; w++ {
		all = append(all, ranked[w]...)
		pruned = pruned || prunedBy[w]
	}
	s.merged = all
	return all, pruned, nil
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
	sizeSorted := lib.ImplLenSorted()
	var tally pruneTally
	defer f.stats.add(&tally)

	compressed := lib.PostingsCompressed()
	rows := make([]prunedRow, 0, len(h))
	for _, a := range h {
		if !compressed {
			row := lib.ImplsOfAction(a)
			pos := sort.Search(len(row), func(i int) bool { return row[i] >= lo })
			end := pos + sort.Search(len(row)-pos, func(i int) bool { return row[pos+i] >= hi })
			if pos == end {
				continue
			}
			rows = append(rows, prunedRow{raw: row, blk: lib.ActionPostingBlocks(a), pos: pos, end: end})
			continue
		}
		cur := lib.PostingRowCursor(a)
		pos := cur.Search(0, cur.Len(), lo)
		end := cur.Search(pos, cur.Len(), hi)
		if pos == end {
			continue
		}
		rows = append(rows, prunedRow{cur: cur, blk: lib.ActionPostingBlocks(a), pos: pos, end: end})
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

	// Under a size-sorted (impact-ordered) layout the floor yields a global
	// id cutoff: an implementation's overlap is at most len(rows), so one
	// with |A_p| − len(rows) strictly too many missing actions (closeness) or
	// len(rows)/|A_p| strictly below the floor ratio (completeness) can never
	// rank — and neither can any later id, whose size is at least as large.
	// The scan then simply ends at the cutoff instead of block-testing the
	// whole tail. Both cutoff tests mirror the per-block tests: strict, and
	// in integers.
	effHi := hi
	rmax := int64(len(rows))
	// The floor only ever tightens, and both cutoff predicates are monotone
	// in id under the size-sorted layout, so an unchanged floor reproduces
	// the previous cutoff exactly — re-searching is pure overhead. clamped*
	// remember the floor of the last search.
	var clampedMiss, clampedC, clampedN int64
	clampEffHi := func(chunkLo core.ImplID) {
		if !sizeSorted {
			return
		}
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

	// Chunk width: fixed without the size-sorted layout (narrow chunks keep
	// the active-row overlap bound tight, the only pruning lever available),
	// doubling with it — there the global cutoff does the pruning, per-chunk
	// work is pure overhead, and the floor the cutoff derives from converges
	// within the first few (smallest-implementation) chunks. clampEffHi at
	// every chunk start bounds how far a widened chunk can overshoot the
	// final cutoff.
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
		if sizeSorted {
			width *= 2
		}
		if chunkHi > effHi {
			chunkHi = effHi
		}

		// Chunk overlap bound: rows holding at least one entry in the chunk.
		active := int64(0)
		for i := range rows {
			r := &rows[i]
			if r.pos >= r.end {
				continue
			}
			if r.raw != nil {
				if r.raw[r.pos] < chunkHi {
					active++
				}
			} else if !r.cur.AtLeast(r.pos, chunkHi) {
				active++
			}
		}
		if active == 0 {
			chunkLo = chunkHi
			continue
		}

		for i := range rows {
			r := &rows[i]
			// The raw and cursor walks are the same segment loop; the raw
			// copy indexes the row view directly so uncompressed libraries
			// pay no call overhead per segment.
			if row := r.raw; row != nil {
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
				continue
			}
			for r.pos < r.end && !r.cur.AtLeast(r.pos, chunkHi) {
				j := r.pos / core.PostingBlockEntries
				blockEnd := (j + 1) * core.PostingBlockEntries
				if blockEnd > r.end {
					blockEnd = r.end
				}
				segEnd := blockEnd
				if r.cur.AtLeast(blockEnd-1, chunkHi) {
					segEnd = r.cur.Search(r.pos, blockEnd, chunkHi)
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
					touched = core.AccumulateOverlapRow(r.cur.Slice(r.pos, segEnd), s.cnt, touched)
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
			overlap := int(s.cnt[p])
			s.cnt[p] = 0
			n := lib.ImplLen(p)
			missing := n - overlap
			if missing == 0 {
				continue // fully covered: nothing left to recommend
			}
			var score float64
			if closeness {
				score = 1 / float64(missing)
			} else {
				score = float64(overlap) / float64(n)
			}
			cand := rankedImpl{id: p, score: score, missing: missing}
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

// ---------------------------------------------------------------------------
// Breadth: MaxScore-style candidate-major walk
// ---------------------------------------------------------------------------

// breadthPruneMaxK bounds the k for which Breadth's candidate-major pruned
// path engages: the walk's win comes from an early, high floor, which a very
// wide heap never provides.
const breadthPruneMaxK = 1024

// recommendPruned is Breadth's threshold-aware path: phase 1 materializes
// the overlap counters exactly like the kernel (sequential or sharded), then
// phase 2 re-derives each candidate's score candidate-by-candidate over
// ascending action ids, bounded by comm_max · min(|IS(a)|, touched). Under
// impact ordering the suffix-degree bound is exact at every position, so the
// walk stops as soon as the remaining candidates cannot reach the k-th
// score. All sums are integers in int64, converted once — identical to the
// kernel's exact float64 accumulation.
func (b *Breadth) recommendPruned(ctx context.Context, h []core.ActionID, stream, k int) ([]ScoredAction, error) {
	lib := b.lib
	numImpls := lib.NumImplementations()
	workers := b.conc.workersFor(stream, numImpls)
	s := b.pool.Get().(*breadthScratch)
	defer b.pool.Put(s)
	if len(s.cnt) < numImpls {
		s.cnt = make([]int32, numImpls)
	}
	touched := s.shards(workers)

	var tally pruneTally
	tally.implsAssociated = int64(stream)

	// Phase 1: counters only. Unlike run(), the counters must survive the
	// pass — phase 2 reads them per candidate — so cleanup is explicit here.
	var firstErr error
	if workers == 1 {
		tick := newTicker(ctx)
		firstErr = s.accumulate(lib, h, 0, core.ImplID(numImpls), 0, &tick)
	} else {
		chunk := (numImpls + workers - 1) / workers
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := core.ImplID(w * chunk)
			hi := lo + core.ImplID(chunk)
			if lo > core.ImplID(numImpls) {
				lo = core.ImplID(numImpls)
			}
			if hi > core.ImplID(numImpls) {
				hi = core.ImplID(numImpls)
			}
			wg.Add(1)
			go func(w int, lo, hi core.ImplID) {
				defer wg.Done()
				tick := newTicker(ctx)
				errs[w] = s.accumulate(lib, h, lo, hi, w, &tick)
			}(w, lo, hi)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				firstErr = err
				break
			}
		}
	}
	if firstErr != nil {
		for _, tl := range touched {
			for _, p := range tl {
				s.cnt[p] = 0
			}
		}
		return nil, firstErr
	}

	nTouched := int64(0)
	var cmax int32
	for _, tl := range touched {
		nTouched += int64(len(tl))
		for _, p := range tl {
			if c := s.cnt[p]; c > cmax {
				cmax = c
			}
		}
	}
	tally.implsScored = nTouched
	// comm_max caps any one implementation's contribution to a candidate.
	var commMax float64
	switch b.weighting {
	case Count:
		commMax = 1
	case Union:
		commMax = float64(int64(lib.MaxImplLen()) + int64(len(h)) - 1)
	default:
		commMax = float64(cmax)
	}

	for _, a := range h {
		if a >= 0 && int(a) < len(s.inH) {
			s.inH[a] = true
		}
	}
	defer func() {
		for _, a := range h {
			if a >= 0 && int(a) < len(s.inH) {
				s.inH[a] = false
			}
		}
		for _, tl := range touched {
			for _, p := range tl {
				s.cnt[p] = 0
			}
		}
		b.stats.add(&tally)
	}()

	// Cost model: the candidate-major walk rescans each candidate's posting
	// row — up to the entire A-GI-idx per query — while the action-major
	// finish only walks the touched implementations' action lists. The walk
	// can only win when the floor discards most of that rescan, which a
	// dense, high-degree index never allows; when its ceiling is far above
	// the action-major cost, finish action-major instead. Every comm is
	// integer-valued, so both finishes produce bit-identical rankings.
	actionCost := int64(0)
	for _, tl := range touched {
		for _, p := range tl {
			actionCost += int64(lib.ImplLen(p))
		}
	}
	if int64(lib.NumPostings()) > 4*actionCost {
		out, err := b.finishActionMajor(ctx, h, s, touched, k)
		if err == nil {
			tally.candidatesScored += int64(len(out))
		}
		return out, err
	}

	// Phase 2: candidate-major walk into the k-bounded selector, whose floor
	// is −∞ until k candidates are held. Both upper-bound products stay far
	// below 2^53, so the float comparisons are exact.
	tick := newTicker(ctx)
	nAct := lib.NumActions()
	sel := newSelector(k, nAct)
	for ai := 0; ai < nAct; ai++ {
		a := core.ActionID(ai)
		floor := sel.floor()
		if ub := min(int64(lib.ActionDegreeSuffixMax(a)), nTouched); float64(ub)*commMax < floor {
			tally.candidatesSkipped += int64(nAct - ai)
			break
		}
		if s.inH[a] {
			continue
		}
		deg := lib.ActionDegree(a)
		if deg == 0 {
			continue
		}
		if ub := min(int64(deg), nTouched); float64(ub)*commMax < floor {
			tally.candidatesSkipped++
			continue
		}
		var row []core.ImplID
		row, s.rowBuf = lib.PostingRow(a, s.rowBuf)
		if err := tick.tick(len(row)); err != nil {
			return nil, err
		}
		var sum int64
		switch b.weighting {
		case Count:
			for _, p := range row {
				if s.cnt[p] != 0 {
					sum++
				}
			}
		case Union:
			hn := int64(len(h))
			for _, p := range row {
				if c := int64(s.cnt[p]); c != 0 {
					sum += int64(lib.ImplLen(p)) + hn - c
				}
			}
		default:
			for _, p := range row {
				sum += int64(s.cnt[p])
			}
		}
		if sum == 0 {
			continue // not a candidate: no associated implementation contains it
		}
		tally.candidatesScored++
		sel.offer(ScoredAction{Action: a, Score: float64(sum)})
	}
	return sel.sorted(), nil
}

// finishActionMajor is the pruned Breadth path's fallback finish when the
// cost model rules out the candidate-major walk: the kernel's own phase-2
// scoring over the already-materialized counters, run sequentially (its
// cost, Σ_{p touched} |A_p|, is far below the accumulate pass that preceded
// it). The caller's deferred cleanup still owns the counters and inH.
func (b *Breadth) finishActionMajor(ctx context.Context, h []core.ActionID, s *breadthScratch, touched [][]core.ImplID, k int) ([]ScoredAction, error) {
	lib := b.lib
	scores := s.scores
	actions := s.actions[:0]
	tick := newTicker(ctx)
	var err error
score:
	for _, tl := range touched {
		for _, p := range tl {
			if err = tick.tick(1); err != nil {
				break score
			}
			var comm float64
			switch b.weighting {
			case Count:
				comm = 1
			case Union:
				comm = float64(lib.ImplLen(p) + len(h) - int(s.cnt[p]))
			default:
				comm = float64(s.cnt[p])
			}
			for _, a := range lib.Actions(p) {
				if s.inH[a] {
					continue
				}
				if scores[a] == 0 {
					actions = append(actions, a)
				}
				scores[a] += comm
			}
		}
	}
	if err != nil {
		for _, a := range actions {
			scores[a] = 0
		}
		s.actions = actions[:0]
		return nil, err
	}
	s.actions = actions[:0]
	return drainScores(scores, actions, k), nil
}

// ---------------------------------------------------------------------------
// Best Match: degree-bounded candidate ordering
// ---------------------------------------------------------------------------

// bmPruneMaxGoalSpace bounds the goal-space size for which the pruned cosine
// path engages: the prefix-sum preparation sorts the squared profile, so a
// huge goal space with few candidates would pay more than it saves.
const bmPruneMaxGoalSpace = 1 << 16

// bmUBSlack is the additive slack on the cosine upper bound. The bound is
// evaluated in floats whose summation error is bounded far below 1e-9, so
// 1e-6 makes the comparison safe in the only direction that matters: slack
// can only reduce pruning, never the result.
const bmUBSlack = 1e-6

// bmCand is one candidate with its distinct-goal degree, the sort key of the
// pruned walk.
type bmCand struct {
	a   core.ActionID
	deg int32
}

// scoreCosinePruned scores candidates best-bound-first: a candidate touching
// at most d goals of the goal space has ‖a⃗∩GS‖·cos ≤ ‖p_S‖ for some goal
// subset S, |S| ≤ d, so sim ≤ √prefix[min(d,|GS|)−1]/‖p‖ where prefix holds
// descending prefix sums of the squared profile. Candidates are walked in
// degree-descending order, making the bound non-increasing: the first
// candidate whose bound falls strictly below the k-th score ends the walk.
// Scored candidates use the exact same scoreOne floats as the unpruned
// paths, so the surviving top k is bit-identical.
func (bm *BestMatch) scoreCosinePruned(ctx context.Context, s *bmScratch, candidates []core.ActionID, profNorm float64, sel *selector) error {
	var tally pruneTally
	defer bm.stats.add(&tally)

	pf := append(s.prefix[:0], s.profile...)
	for i := range pf {
		pf[i] *= pf[i]
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(pf)))
	for i := 1; i < len(pf); i++ {
		pf[i] += pf[i-1]
	}
	s.prefix = pf

	ord := s.ord[:0]
	for _, a := range candidates {
		ord = append(ord, bmCand{a: a, deg: int32(bm.lib.GoalDegree(a))})
	}
	sort.Slice(ord, func(i, j int) bool {
		if ord[i].deg != ord[j].deg {
			return ord[i].deg > ord[j].deg
		}
		return ord[i].a < ord[j].a
	})
	s.ord = ord

	tick := newTicker(ctx)
	for i, c := range ord {
		ub := bmUBSlack - 1.0 // Score = −(1 − sim)
		if t := min(int(c.deg), len(pf)); t > 0 {
			ub += math.Sqrt(pf[t-1]) / profNorm
		}
		if ub < sel.floor() {
			tally.candidatesSkipped += int64(len(ord) - i)
			break
		}
		if err := tick.tick(1 + int(c.deg)); err != nil {
			return err
		}
		tally.candidatesScored++
		sel.offer(bm.scoreOne(s, c.a, profNorm))
	}
	return nil
}
