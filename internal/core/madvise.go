package core

// Paging hints for snapshot mappings. A snapshot's sections fall into two
// access classes: the posting payloads (A-GI rows, the GI column, per-
// implementation action lists, the names and their tables) are probed at
// random by queries, while the CSR offset arrays are touched by essentially
// every request. On open we advise
// the kernel accordingly — MADV_RANDOM on the payloads (no wasted readahead
// when the working set exceeds RAM) and MADV_WILLNEED on the small navigation
// structures (header, section table, offset arrays — paged in eagerly so the
// first queries don't fault through them one page at a time). WILLNEED is
// capped to small spans (adviseWillNeedMax): its page walk would otherwise
// dominate open latency. Hints are best-effort and Linux-only; see
// madvise_linux.go.

// Advice classes passed to the per-OS madviseSpan.
const (
	adviseRandom = iota + 1
	adviseWillNeed
)

// adviseWillNeedMax bounds the span MADV_WILLNEED is issued for. The syscall
// walks its range page by page, so hinting a multi-megabyte offsets section
// costs hundreds of microseconds — more than the mmap itself. Small navigation structures (header, section table, small offset
// arrays) get the eager hint; anything larger is left to default readahead.
const adviseWillNeedMax = 256 << 10

// adviseAsync runs advise off the open path. The hints are a dozen madvise
// syscalls plus the VMA splits they force — tens of microseconds the open
// need not wait for. The snapshot is fully serviceable before the hints land
// (they only shape future paging), so OpenSnapshotVerified returns at once
// and Close waits via adviseWG before unmapping.
func (s *Snapshot) adviseAsync() {
	if len(s.data) == 0 {
		return
	}
	s.adviseWG.Add(1)
	go func() {
		defer s.adviseWG.Done()
		s.advise()
	}()
}

// advise issues per-section paging hints over the snapshot's mapping. Only
// OpenSnapshotVerified, which maps a verified file, launches it; an image
// OpenSnapshotBytes builds over the heap never reaches it.
func (s *Snapshot) advise() {
	secs, _, err := snapshotSections(s.data, uint64(len(s.data)))
	if err != nil {
		return
	}
	// Header + section table: needed immediately.
	madviseSpan(s.data, 0, uint64(snapHeaderSize+snapSectSize*len(secs)), adviseWillNeed)
	for id, sec := range secs {
		n := sec.count * uint64(sec.elem)
		switch id {
		case secActPost, secGoalPost, secImplActs, secImplGoal,
			secVocActStr, secVocGoalStr, secVocActTab, secVocGoalTab:
			madviseSpan(s.data, sec.off, n, adviseRandom)
		default:
			if n <= adviseWillNeedMax {
				madviseSpan(s.data, sec.off, n, adviseWillNeed)
			}
		}
	}
}
