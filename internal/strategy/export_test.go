package strategy

import "goalrec/internal/core"

// NewShardedBestMatch gives the external test package a Best Match pinned to
// the candidate-major path with a forced worker count (shard threshold 1),
// the Best Match counterpart of Focus/Breadth SetConcurrency.
func NewShardedBestMatch(lib *core.Library, workers int) *BestMatch {
	bm := NewBestMatch(lib)
	bm.mode = bmCandidateMajor
	bm.maxWorkers = workers
	bm.shardMin = 1
	return bm
}
