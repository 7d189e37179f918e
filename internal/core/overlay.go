package core

import "unsafe"

// The copy-on-write overlay of an extended snapshot: for every action and
// goal the implementations appended since the last flat index build touched,
// one row holding the merged index rows that replace the base epoch's. Rows
// are reached through fixed-size pages of row pointers, indexed
// pages[id>>ovPageBits][id&(ovPageRows-1)]. A published table is immutable;
// the next epoch copies the page-pointer slice and clones only the pages that
// hold a row it replaces, so every page it does not touch is shared by all
// the epochs still alive and a retained epoch costs the pages and rows its own
// publish wrote, whatever the backlog since the flat build.

const (
	ovPageBits = 6
	ovPageRows = 1 << ovPageBits
)

// actRow overlays one touched action: its merged A-GI-idx row with the row's
// block-max metadata, and its merged AG-idx row.
type actRow struct {
	post   []ImplID
	blk    PostingBlocks
	agGoal []GoalID
	agCnt  []int32
}

// goalRow overlays one touched goal: its merged G-GI-idx row, its merged
// GA-idx row and its walk cost.
type goalRow struct {
	post  []ImplID
	gaAct []ActionID
	gaCnt []int32
	slots int32
}

type ovPage[R any] [ovPageRows]*R

// ovTable maps dense non-negative ids to overlay rows. The zero value is the
// empty table of a flat library: pages is nil. A non-nil pages covers the
// library's whole id space and holds no nil pointer — pages nothing was
// written to are all the one empty page — so that a lookup is
// pages[id>>ovPageBits][id&(ovPageRows-1)] behind a single nil check. The
// Library accessors write that expression out instead of calling a method:
// inlined through one they exceed the compiler's inlining budget, and the
// strategies' inner loops (Best Match reads ActionsOfGoal once per goal of
// the goal space) then pay a call per row — measured as ≈10 % more daemon CPU
// per request on the benchmark's best-match workload.
type ovTable[R any] struct {
	pages []*ovPage[R]
	empty *ovPage[R] // stands in for every page without a row
	rows  int        // ids that have a row
}

// numPages counts the pages that hold rows, shared ones included.
func (t *ovTable[R]) numPages() int {
	n := 0
	for _, pg := range t.pages {
		if pg != t.empty {
			n++
		}
	}
	return n
}

// ovWriter assembles the next epoch's table. Pages it allocated itself are
// written in place; a page inherited from the previous epoch is cloned before
// its first write, because older snapshots read it.
type ovWriter[R any] struct {
	ovTable[R]
	owned []bool // per page: allocated by this writer
}

// extend starts the table of the next epoch, over an id space of n > 0 ids.
func (t *ovTable[R]) extend(n int) ovWriter[R] {
	np := (n + ovPageRows - 1) >> ovPageBits
	w := ovWriter[R]{ovTable: ovTable[R]{pages: make([]*ovPage[R], np), empty: t.empty, rows: t.rows}, owned: make([]bool, np)}
	if w.empty == nil {
		w.empty = new(ovPage[R])
	}
	for i := copy(w.pages, t.pages); i < np; i++ {
		w.pages[i] = w.empty
	}
	return w
}

// set installs r as the row of id.
func (w *ovWriter[R]) set(id int32, r *R) {
	pi := int(id) >> ovPageBits
	if !w.owned[pi] {
		pg := *w.pages[pi]
		w.pages[pi], w.owned[pi] = &pg, true
	}
	slot := &w.pages[pi][id&(ovPageRows-1)]
	if *slot == nil {
		w.rows++
	}
	*slot = r
}

// bytes returns the heap size of the row and the index rows it holds.
func (r *actRow) bytes() int64 {
	return int64(unsafe.Sizeof(*r)) + 4*int64(len(r.post)+len(r.blk.Last)+len(r.blk.MinLen)+len(r.blk.MaxLen)+len(r.agGoal)+len(r.agCnt))
}

// bytes returns the heap size of the row and the index rows it holds.
func (r *goalRow) bytes() int64 {
	return int64(unsafe.Sizeof(*r)) + 4*int64(len(r.post)+len(r.gaAct)+len(r.gaCnt))
}

// bytes returns the heap size of everything the table references — page
// pointers, pages and rows — whether or not other epochs share it.
func (t *ovTable[R]) bytes(rowBytes func(*R) int64) int64 {
	n := 8 * int64(len(t.pages))
	for _, pg := range t.pages {
		if pg == t.empty {
			continue
		}
		n += int64(unsafe.Sizeof(*pg))
		for _, r := range pg {
			if r != nil {
				n += rowBytes(r)
			}
		}
	}
	return n
}
