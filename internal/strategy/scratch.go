package strategy

import (
	"slices"
	"sync"

	"goalrec/internal/core"
)

// scratch is one query's working set, whichever strategy runs it. Every
// query takes one from the pool and returns it when done. A query grows
// only the buffers it uses, to the library at hand (grow), and returns them
// all zero, on an abort too.
type scratch struct {
	// The counter kernel's (kernel.go). A count is |A_p ∩ H| ≤ min(|A_p|,
	// |H|), so a byte per implementation holds every count of a query whose
	// bound min(MaxImplLen, |H|) is at most 255 (250 KB at the bench shape);
	// only a query with a larger bound counts in wide.
	cnt     []uint8
	wide    []int32
	touched []core.ImplID
	counts  []int32 // gathered out of the counters, aligned with touched

	ranked []rankedImpl // Focus's scored implementations

	// Breadth's H membership and score accumulator, indexed by action id;
	// actions are the ids scores touched.
	inH     []bool
	scores  []float64
	actions []core.ActionID

	// Best Match's GS(H) with its profile (as floats too), and ShardVectors'
	// counts of one candidate per goal slot, with the slots touched.
	goals   core.GoalTally
	profile []float64
	run     []float64
	slots   []int
	// Goal-major accumulators, indexed by action id and cleared through
	// actTouched: acc holds a⃗·H⃗ and ‖a⃗‖², accL1 Σa⃗ and Σmin(a⃗, H⃗) for the
	// L1 metrics only, so cosine scatters 16 bytes per action.
	acc, accL1 [][2]float64
	actTouched []core.ActionID
	cands      []core.ActionID // the candidate pool
	candBufs   core.CandidateScratch
}

// scratchPool serves every query of every instance — every strategy,
// measure, metric, library, epoch and shard — so a process holds one
// scratch per concurrent query.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch takes a scratch from the pool.
func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// putScratch returns s to the pool without what only a rare query needs:
// the wide counters, and a goal tally past core's retained size (Reset
// drops it).
func putScratch(s *scratch) {
	s.wide = nil
	s.goals.Reset(0)
	scratchPool.Put(s)
}

// grow returns buf grown in place to n elements. Nothing is written past a
// buffer's length, so what it grows into is zero, and the spare capacity
// append leaves absorbs the implementations and goals later ingests add.
func grow[T any](buf []T, n int) []T {
	if n <= len(buf) {
		return buf
	}
	return slices.Grow(buf, n-len(buf))[:n]
}
