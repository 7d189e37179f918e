package core

// This file carries the bound metadata behind Focus's block-max scan:
// per-posting-row block summaries, the library-wide maximum implementation
// length, and whether implementation lengths are sorted in id. All of it is
// derived once per snapshot — at Build/compaction time for flat
// libraries, per touched row for extended (overlay) snapshots — and is pure
// summary data: dropping it changes nothing observable, using it lets a
// top-k scan skip whole runs of postings that provably cannot beat the
// current k-th score (see DESIGN.md, "Bounds & pruning").

// PostingBlockEntries is the number of posting entries summarized by one
// block of A-GI row metadata. Posting rows are sorted by implementation id,
// so block j of a row covers entries [j·PostingBlockEntries,
// (j+1)·PostingBlockEntries) exactly.
const PostingBlockEntries = 128

// PostingBlocks is the block-max metadata of one A-GI posting row. For every
// fixed-size block of the row it records the last (maximum) implementation
// id, and the minimum and maximum |A_p| over the block's implementations.
// min |A_p| upper-bounds both Focus measures for every implementation in the
// block (completeness ≤ min(overlap, |A_p|)/|A_p|, closeness ≤
// 1/(|A_p| − overlap)); max |A_p| caps the achievable overlap
// (|A_p ∩ H| ≤ min(max |A_p|, |H|)). All three slices have one entry per
// block and must not be modified.
type PostingBlocks struct {
	Last   []ImplID
	MinLen []int32
	MaxLen []int32
}

// NumBlocks returns the number of blocks in the row.
func (b PostingBlocks) NumBlocks() int { return len(b.Last) }

// appendRowBlocks appends the block summaries of one posting row to the
// three parallel destination slices and returns them. The row must be sorted
// and its implementation ids must be valid in l.
func (l *Library) appendRowBlocks(row []ImplID, last []ImplID, minLen, maxLen []int32) ([]ImplID, []int32, []int32) {
	for lo := 0; lo < len(row); lo += PostingBlockEntries {
		hi := lo + PostingBlockEntries
		if hi > len(row) {
			hi = len(row)
		}
		mn := int32(1) << 30
		mx := int32(0)
		for _, p := range row[lo:hi] {
			n := int32(l.ImplLen(p))
			if n < mn {
				mn = n
			}
			if n > mx {
				mx = n
			}
		}
		last = append(last, row[hi-1])
		minLen = append(minLen, mn)
		maxLen = append(maxLen, mx)
	}
	return last, minLen, maxLen
}

// buildBlocks derives the flat block-max arrays from the A-GI postings and
// the library-wide maximum implementation length. Called from buildIndexes.
func (l *Library) buildBlocks() {
	nAct := l.numActions
	total := 0
	for a := 0; a < nAct; a++ {
		d := int(l.actOff[a+1] - l.actOff[a])
		total += (d + PostingBlockEntries - 1) / PostingBlockEntries
	}
	l.blkOff = make([]int32, nAct+1)
	l.blkLast = make([]ImplID, 0, total)
	l.blkMinLen = make([]int32, 0, total)
	l.blkMaxLen = make([]int32, 0, total)
	for a := 0; a < nAct; a++ {
		l.blkOff[a] = int32(len(l.blkLast))
		row := l.actPost[l.actOff[a]:l.actOff[a+1]]
		l.blkLast, l.blkMinLen, l.blkMaxLen = l.appendRowBlocks(row, l.blkLast, l.blkMinLen, l.blkMaxLen)
	}
	l.blkOff[nAct] = int32(len(l.blkLast))

	l.maxImplLen = 0
	l.implLenSorted = true
	prev := int32(0)
	for p := 0; p < len(l.implGoal); p++ {
		n := l.implOff[p+1] - l.implOff[p]
		if n > l.maxImplLen {
			l.maxImplLen = n
		}
		if n < prev {
			l.implLenSorted = false
		}
		prev = n
	}
}

// ImplLenSorted reports whether implementation lengths are non-decreasing in
// id — the impact-ordered layout. Threshold-aware scans use it to turn a
// score floor into a global id cutoff (see internal/strategy, prune.go).
// Derived at build time and maintained incrementally across extended
// snapshots, so reading it is free on the query path.
func (l *Library) ImplLenSorted() bool { return l.implLenSorted }

// ActionPostingBlocks returns the block-max metadata of action a's posting
// row, aligned with ImplsOfAction(a). Ids outside the library — or newer
// than the snapshot's base indexes and never touched — yield an empty view.
func (l *Library) ActionPostingBlocks(a ActionID) PostingBlocks {
	if uint32(a) < uint32(l.numActions) {
		if l.ovAct.pages != nil {
			if r := l.ovAct.pages[a>>ovPageBits][a&(ovPageRows-1)]; r != nil {
				return r.blk
			}
		}
		if int(a)+1 < len(l.blkOff) {
			lo, hi := l.blkOff[a], l.blkOff[a+1]
			return PostingBlocks{Last: l.blkLast[lo:hi], MinLen: l.blkMinLen[lo:hi], MaxLen: l.blkMaxLen[lo:hi]}
		}
	}
	return PostingBlocks{}
}

// MaxImplLen returns the largest |A_p| in the library, 0 when empty. It caps
// every per-implementation weight a scan can encounter.
func (l *Library) MaxImplLen() int { return int(l.maxImplLen) }
