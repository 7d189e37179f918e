package strategy

import "goalrec/internal/core"

// The sharding configuration is a test seam, not an API: production code
// always runs the zero-value defaults (GOMAXPROCS workers, the default shard
// thresholds), and rankings are bit-identical for every setting.

// SetConcurrency pins the sharded implementation scan: maxWorkers bounds the
// per-query worker pool (≤ 0 selects GOMAXPROCS) and shardMin is the
// posting-stream size below which a query stays sequential (≤ 0 selects the
// default).
func (f *Focus) SetConcurrency(maxWorkers, shardMin int) {
	f.conc = concurrency{maxWorkers: maxWorkers, shardMin: shardMin}
}

// SetConcurrency is Focus.SetConcurrency for the Breadth kernel pass.
func (b *Breadth) SetConcurrency(maxWorkers, shardMin int) {
	b.conc = concurrency{maxWorkers: maxWorkers, shardMin: shardMin}
}

// NewShardedBestMatch gives the external test package a Best Match pinned to
// the candidate-major path with a forced worker count (shard threshold 1).
func NewShardedBestMatch(lib *core.Library, workers int) *BestMatch {
	bm := NewBestMatch(lib)
	bm.mode = bmCandidateMajor
	bm.maxWorkers = workers
	bm.shardMin = 1
	return bm
}
