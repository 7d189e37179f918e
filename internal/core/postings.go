package core

import (
	"slices"
	"sort"
)

// This file is the access surface over block-compressed A-GI postings. A
// snapshot opened with compressed postings keeps actOff (row lengths) and the
// block-max metadata as plain arrays but replaces actPost with a varint delta
// blob (postenc.go); every accessor below resolves a row either as a zero-
// copy view (flat arrays, overlay rows) or by decoding exactly the blocks it
// needs into a caller-owned buffer. The scan kernels route all hot-path row
// reads through PostingRow/PostingRowRange/PostingRowCursor so the raw path
// stays zero-cost and the compressed path decodes lazily.

// compressedPostings holds the block-compressed A-GI postings of a snapshot-
// loaded library. blobOff[g]..blobOff[g+1] delimit the bytes of global block
// g (indexed exactly like blkLast), so a block decodes independently given
// the previous block's Last value.
type compressedPostings struct {
	id      uint64   // process-unique source id for the block cache; 0 = uncacheable
	blobOff []uint64 // per global block, len total blocks + 1
	blob    []byte
}

// PostingsCompressed reports whether the A-GI posting rows of this library's
// base epoch are block-compressed (snapshot-loaded with compression). Overlay
// rows of extended snapshots are always plain.
func (l *Library) PostingsCompressed() bool { return l.cp != nil }

// blockLen returns the entry count of local block j of a row of n entries.
func blockLen(n, j int) int {
	c := n - j*PostingBlockEntries
	if c > PostingBlockEntries {
		c = PostingBlockEntries
	}
	return c
}

// decodeRowAppend appends the full decoded posting row of action a to dst.
// The caller has already resolved overlays and bounds: a must have a base-
// epoch compressed row.
func (l *Library) decodeRowAppend(a ActionID, dst []ImplID) []ImplID {
	n := int(l.actOff[a+1] - l.actOff[a])
	bLo, bHi := int(l.blkOff[a]), int(l.blkOff[a+1])
	dst = slices.Grow(dst, n)
	prev := ImplID(-1)
	bc := activeBlockCache()
	for g := bLo; g < bHi; g++ {
		if blk := l.cachedBlock(bc, g, prev, blockLen(n, g-bLo)); blk != nil {
			dst = append(dst, blk...)
		} else {
			blob := l.cp.blob[l.cp.blobOff[g]:l.cp.blobOff[g+1]]
			dst = decodeBlockAppend(blob, prev, blockLen(n, g-bLo), dst)
		}
		prev = l.blkLast[g]
	}
	return dst
}

// subRange returns the sub-slice of the sorted row with ids in [lo, hi).
func subRange(row []ImplID, lo, hi ImplID) []ImplID {
	i := sort.Search(len(row), func(i int) bool { return row[i] >= lo })
	j := i + sort.Search(len(row)-i, func(j int) bool { return row[i+j] >= hi })
	return row[i:j]
}

// rawRow resolves action a to an uncompressed row view when one exists
// (overlay row or flat base array). The second result is false when the row
// exists only in compressed form.
func (l *Library) rawRow(a ActionID) ([]ImplID, bool) {
	if uint32(a) < uint32(l.numActions) {
		if l.ovAct.pages != nil {
			if r := l.ovAct.pages[a>>ovPageBits][a&(ovPageRows-1)]; r != nil {
				return r.post, true
			}
		}
		if int(a)+1 < len(l.actOff) {
			if l.cp != nil {
				return nil, false
			}
			return l.actPost[l.actOff[a]:l.actOff[a+1]], true
		}
	}
	return nil, true
}

// PostingRow returns the full posting row of action a. For uncompressed rows
// the result is a zero-copy view and buf is returned unchanged; for
// compressed rows the result aliases buf (reset and grown as needed). The
// returned row must be treated as read-only and is valid until buf's next
// reuse; callers pool buf across queries to keep the decode allocation-free.
func (l *Library) PostingRow(a ActionID, buf []ImplID) (row, outBuf []ImplID) {
	if r, ok := l.rawRow(a); ok {
		return r, buf
	}
	buf = l.decodeRowAppend(a, buf[:0])
	return buf, buf
}

// PostingRowRange returns the sub-row of IS(a) with ids in [lo, hi) under the
// same view-or-buffer contract as PostingRow. For compressed rows only the
// blocks overlapping [lo, hi) are decoded, located through the block-max
// Last array.
func (l *Library) PostingRowRange(a ActionID, lo, hi ImplID, buf []ImplID) (row, outBuf []ImplID) {
	if r, ok := l.rawRow(a); ok {
		return subRange(r, lo, hi), buf
	}
	if hi <= lo {
		return nil, buf
	}
	n := int(l.actOff[a+1] - l.actOff[a])
	bLo, bHi := int(l.blkOff[a]), int(l.blkOff[a+1])
	last := l.blkLast[bLo:bHi]
	// First block that can contain an id ≥ lo.
	j := sort.Search(len(last), func(i int) bool { return last[i] >= lo })
	buf = buf[:0]
	if rem := (len(last) - j) * PostingBlockEntries; rem > 0 {
		if rem > n {
			rem = n
		}
		buf = slices.Grow(buf, rem)
	}
	bc := activeBlockCache()
	for ; j < len(last); j++ {
		prev := ImplID(-1)
		if j > 0 {
			prev = last[j-1]
		}
		if prev+1 >= hi {
			break // block's smallest id (> prev) is already ≥ hi
		}
		if blk := l.cachedBlock(bc, bLo+j, prev, blockLen(n, j)); blk != nil {
			buf = append(buf, blk...)
			continue
		}
		blob := l.cp.blob[l.cp.blobOff[bLo+j]:l.cp.blobOff[bLo+j+1]]
		buf = decodeBlockAppend(blob, prev, blockLen(n, j), buf)
	}
	return subRange(buf, lo, hi), buf
}

// PostingRowCursor is a lazily decoding cursor over one A-GI posting row,
// with absolute positions aligned to the row's block-max metadata. Over an
// uncompressed row every access is a direct array read; over a compressed row
// the cursor holds at most one decoded block, and AtLeast answers monotone
// threshold probes from the block metadata alone whenever it can — so a scan
// that skips a block never decodes it. A cursor is single-goroutine state.
type PostingRowCursor struct {
	raw  []ImplID // non-nil (or n == 0): uncompressed row view
	l    *Library
	last []ImplID // block Last views of the row (compressed only)
	base int      // global block index of the row's block 0
	n    int      // row length
	cur  int      // local block index held in view, -1 when none
	view []ImplID // current decoded block: buf, or a shared cache entry
	buf  []ImplID // cursor-owned decode scratch
}

// PostingRowCursor returns a cursor over the posting row of action a.
func (l *Library) PostingRowCursor(a ActionID) PostingRowCursor {
	if r, ok := l.rawRow(a); ok {
		return PostingRowCursor{raw: r, n: len(r)}
	}
	n := int(l.actOff[a+1] - l.actOff[a])
	bLo, bHi := int(l.blkOff[a]), int(l.blkOff[a+1])
	return PostingRowCursor{l: l, last: l.blkLast[bLo:bHi], base: bLo, n: n, cur: -1}
}

// Len returns the row length.
func (c *PostingRowCursor) Len() int { return c.n }

func (c *PostingRowCursor) ensure(j int) {
	if c.cur == j {
		return
	}
	prev := ImplID(-1)
	if j > 0 {
		prev = c.last[j-1]
	}
	if blk := c.l.cachedBlock(activeBlockCache(), c.base+j, prev, blockLen(c.n, j)); blk != nil {
		c.view = blk
		c.cur = j
		return
	}
	cp := c.l.cp
	blob := cp.blob[cp.blobOff[c.base+j]:cp.blobOff[c.base+j+1]]
	c.buf = decodeBlockAppend(blob, prev, blockLen(c.n, j), c.buf[:0])
	c.view = c.buf
	c.cur = j
}

// At returns row[i], decoding i's block if needed.
func (c *PostingRowCursor) At(i int) ImplID {
	if c.raw != nil {
		return c.raw[i]
	}
	j := i / PostingBlockEntries
	c.ensure(j)
	return c.view[i-j*PostingBlockEntries]
}

// AtLeast reports row[i] >= t. For compressed rows it answers from the block
// Last values whenever they decide the comparison — in particular for every
// i at a block boundary during a monotone forward scan — so blocks the caller
// goes on to skip are never decoded.
func (c *PostingRowCursor) AtLeast(i int, t ImplID) bool {
	if c.raw != nil {
		return c.raw[i] >= t
	}
	j := i / PostingBlockEntries
	if c.last[j] < t {
		return false // row[i] ≤ Last[j] < t
	}
	if i == j*PostingBlockEntries {
		prev := ImplID(-1)
		if j > 0 {
			prev = c.last[j-1]
		}
		if prev+1 >= t {
			return true // row[i] > prev ≥ t−1
		}
	}
	c.ensure(j)
	return c.view[i-j*PostingBlockEntries] >= t
}

// Slice returns row[lo:hi] as a view. For compressed rows [lo, hi) must fall
// within a single block — the granularity at which the pruned scans
// accumulate — so the slice is served from the one decoded block.
func (c *PostingRowCursor) Slice(lo, hi int) []ImplID {
	if c.raw != nil {
		return c.raw[lo:hi]
	}
	if lo >= hi {
		return nil
	}
	j := lo / PostingBlockEntries
	c.ensure(j)
	off := j * PostingBlockEntries
	return c.view[lo-off : hi-off]
}

// Search returns the first index in [lo, hi) with row[index] >= t, or hi if
// none. For compressed rows the block to probe is located through the Last
// values, so at most one block is decoded.
func (c *PostingRowCursor) Search(lo, hi int, t ImplID) int {
	if c.raw != nil {
		return lo + sort.Search(hi-lo, func(k int) bool { return c.raw[lo+k] >= t })
	}
	if lo >= hi {
		return hi
	}
	jLo, jHi := lo/PostingBlockEntries, (hi-1)/PostingBlockEntries
	j := jLo + sort.Search(jHi+1-jLo, func(k int) bool { return c.last[jLo+k] >= t })
	if j > jHi {
		return hi
	}
	off := j * PostingBlockEntries
	if j > jLo && c.last[j-1]+1 >= t {
		// The block's first entry already clears t; no decode needed.
		return off
	}
	c.ensure(j)
	s, e := lo, hi
	if off > s {
		s = off
	}
	if end := off + len(c.view); end < e {
		e = end
	}
	idx := s + sort.Search(e-s, func(k int) bool { return c.view[s-off+k] >= t })
	if idx == e && e < hi {
		// Every entry of block j below hi is < t; by choice of j the match
		// (if any) is in this block, so none exists in [lo, hi).
		return hi
	}
	return idx
}
