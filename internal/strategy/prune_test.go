package strategy

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"goalrec/internal/core"
	"goalrec/internal/intset"
	"goalrec/internal/testlib"
)

// TestPrunedRankingsMatchUnpruned drives the source table over random
// libraries in every layout: on the plain one Focus takes the counter
// kernel, on the impact-ordered ones — heap and mapped — the block-max scan,
// and both must match the naive (unpruned) oracle.
func TestPrunedRankingsMatchUnpruned(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 12; trial++ {
		n := 1 + r.Intn(1500)
		actionSpace := 2 + r.Intn(24)
		for _, lib := range testLayouts(t, testlib.RandomLibrary(r, n, actionSpace, 20, 9)) {
			for q := 0; q < 3; q++ {
				checkEverySource(t, lib, testlib.RandomActivity(r, actionSpace, 6), "")
			}
		}
	}
}

// prunableLibrary is built to let the block-max scan skip: the Focus floor
// is established chunk by chunk, so the library spans several id chunks, in
// impact order, and r.Intn(1+r.Intn(...)) skews toward hot low ids the way
// the scalability benchmark's Zipf draw does.
func prunableLibrary(t *testing.T) *core.Library {
	t.Helper()
	r := rand.New(rand.NewSource(9))
	var b core.Builder
	for i := 0; i < 6*prunedChunkIDs; i++ {
		acts := make([]core.ActionID, 1+r.Intn(9))
		for j := range acts {
			acts[j] = core.ActionID(r.Intn(1 + r.Intn(200)))
		}
		if _, err := b.Add(core.GoalID(r.Intn(500)), acts); err != nil {
			t.Fatal(err)
		}
	}
	lib, _ := core.ImpactOrder(b.Build())
	return lib
}

// TestPrunedStatsCountSkips runs the scan where its per-block skip tests
// fire — a library of several id chunks, so later chunks meet an established
// floor; the small libraries of the table end inside the first — and pins
// that the counters record the skips, that what survives them is still the
// oracle's ranking, sequential and sharded, and that an unbounded query on
// the same library never reaches the scan.
func TestPrunedStatsCountSkips(t *testing.T) {
	lib := prunableLibrary(t)
	o := newOracle(lib)
	for _, m := range []FocusMeasure{Completeness, Closeness} {
		for _, workers := range []int{1, 4} {
			var stats PruneStats
			f := NewFocus(lib, m)
			f.SetConcurrency(workers, 1)
			f.CountInto(&stats)
			for _, h := range [][]core.ActionID{{1, 2, 3}, {0, 5}, {7, 30, 60, 150}} {
				for _, k := range []int{1, 10} {
					if got, want := f.Recommend(h, k), o.oracleFocus(h, m, k); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s w%d: scan diverged under block skips (k=%d, h=%v):\ngot  %v\nwant %v", m, workers, k, h, got, want)
					}
				}
			}
			if s := stats.Snapshot(); s.BlocksSkipped == 0 || s.BlocksTotal <= s.BlocksSkipped {
				t.Fatalf("%s w%d skipped no blocks on a prunable layout: %+v", m, workers, s)
			} else if s.ImplsAssociated == 0 {
				t.Fatalf("%s w%d recorded no posting stream: %+v", m, workers, s)
			}

			// The full ranking (k < 0) is unbounded: no floor, so no scan.
			before := stats.Snapshot()
			f.Recommend([]core.ActionID{1, 2, 3}, -1)
			if after := stats.Snapshot(); after != before {
				t.Fatalf("an unbounded query moved the scan counters: %+v -> %+v", before, after)
			}
		}
	}
}

// TestPrunedNilStatsSink verifies that the scan runs without a sink — the
// configuration of every recommender nobody called CountInto on — and that a
// nil *PruneStats reads as all zeros.
func TestPrunedNilStatsSink(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	lib, _ := core.ImpactOrder(testlib.RandomLibrary(r, 500, 12, 10, 7))
	h := intset.FromUnsorted(testlib.RandomActivity(r, 12, 4))
	got := NewFocus(lib, Closeness).Recommend(h, 5)
	if want := newOracle(lib).oracleFocus(h, Closeness, 5); !reflect.DeepEqual(got, want) {
		t.Fatalf("sinkless scan diverged:\ngot  %v\nwant %v", got, want)
	}
	var none *PruneStats
	if s := none.Snapshot(); s != (PruneStatsSnapshot{}) {
		t.Fatalf("nil sink snapshot = %+v, want zeros", s)
	}
}

// TestPrunedAbortScratchInvariants hammers the scan strategies with
// thousands of mid-scan aborts at varying checkpoint depths — Focus on an
// impact-ordered library, so it is the block-max scan that aborts, Breadth
// and Best Match on the kernel — and asserts, after every abort, that the
// pooled scratch went back clean: overlap counters zeroed, score
// accumulators and H-membership cleared. A completed query follows each
// abort and must match the oracle — the end-to-end proof that no partial
// state leaked.
func TestPrunedAbortScratchInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	lib, _ := core.ImpactOrder(testlib.RandomLibrary(r, 2500, 24, 20, 9))
	o := newOracle(lib)

	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			var scans PruneStats
			fc := NewFocus(lib, Closeness)
			fc.CountInto(&scans)
			br := NewBreadth(lib)
			if workers > 1 {
				fc.SetConcurrency(workers, 1)
				br.SetConcurrency(workers, 1)
			}
			bm := NewBestMatch(lib)
			bm.mode = bmCandidateMajor

			checkFocus := func(i int) {
				s := fc.pool.Get().(*focusScratch)
				defer fc.pool.Put(s)
				for p, c := range s.cnt {
					if c != 0 {
						t.Fatalf("abort %d: focus counter %d left at %d", i, p, c)
					}
				}
				for w := range s.touched {
					if len(s.touched[w]) != 0 {
						t.Fatalf("abort %d: focus touched[%d] not truncated", i, w)
					}
				}
			}
			checkBreadth := func(i int) {
				s := br.pool.Get().(*breadthScratch)
				defer br.pool.Put(s)
				for p, c := range s.cnt {
					if c != 0 {
						t.Fatalf("abort %d: breadth counter %d left at %d", i, p, c)
					}
				}
				for a, in := range s.inH {
					if in {
						t.Fatalf("abort %d: breadth inH[%d] left set", i, a)
					}
				}
				for w := range s.acc {
					if len(s.acc[w].actions) != 0 {
						t.Fatalf("abort %d: breadth accumulator %d kept its touched list", i, w)
					}
					for a, v := range s.acc[w].scores {
						if v != 0 {
							t.Fatalf("abort %d: breadth accumulator %d score[%d] left at %v", i, w, a, v)
						}
					}
				}
			}

			for i := 0; i < 1500; i++ {
				h := intset.FromUnsorted(testlib.RandomActivity(r, 24, 6))
				polls := int64(1 + i%9)
				fc.RecommendContext(newCancelAfterPolls(polls), h, 6)
				checkFocus(i)
				br.RecommendContext(newCancelAfterPolls(polls), h, 6)
				checkBreadth(i)
				bm.RecommendContext(newCancelAfterPolls(polls), h, 6)

				if i%5 == 0 {
					if got, want := fc.Recommend(h, 6), o.oracleFocus(h, Closeness, 6); !reflect.DeepEqual(got, want) {
						t.Fatalf("query %d: focus diverged after aborts:\ngot  %v\nwant %v", i, got, want)
					}
					if got, want := br.Recommend(h, 6), o.oracleBreadth(h, Overlap, 6); !reflect.DeepEqual(got, want) {
						t.Fatalf("query %d: breadth diverged after aborts:\ngot  %v\nwant %v", i, got, want)
					}
					if got, want := bm.Recommend(h, 6), o.oracleBestMatch(h, bm.metric, 6); !reflect.DeepEqual(got, want) {
						t.Fatalf("query %d: best-match diverged after aborts:\ngot  %v\nwant %v", i, got, want)
					}
				}
			}
			if scans.Snapshot().BlocksTotal == 0 {
				t.Fatal("the block-max scan never ran: the aborts exercised the kernel only")
			}
		})
	}
}

// TestPrunedDynamicSnapshots follows the selection across a DynamicLibrary
// lineage that starts impact-ordered: the block-max scan keeps serving after
// an append that preserves the size order (over overlay rows, whose block
// metadata is rebuilt per touched row) and across a snapshot write → mmap
// open round trip, and Focus falls back to the kernel once an append breaks
// the order. Rankings equal the oracle in all three states; the table's Focus
// rows assert which source ran.
func TestPrunedDynamicSnapshots(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	const actionSpace = 16
	base, _ := core.ImpactOrder(testlib.RandomLibrary(r, 1200, actionSpace, 12, 7))
	d := core.NewDynamicLibrary()
	d.SetCompactionThreshold(1 << 30) // force the overlay path
	d.Swap(base)
	add := func(n, size int) *core.Library {
		for i := 0; i < n; i++ {
			acts := make([]core.ActionID, 0, size)
			for _, a := range r.Perm(actionSpace)[:size] {
				acts = append(acts, core.ActionID(a))
			}
			if _, err := d.Add(core.GoalID(r.Intn(12)), acts); err != nil {
				t.Fatal(err)
			}
		}
		return d.Snapshot()
	}
	check := func(state string, lib *core.Library, sorted bool) {
		t.Helper()
		if lib.ImplLenSorted() != sorted {
			t.Fatalf("%s: ImplLenSorted = %v, want %v", state, lib.ImplLenSorted(), sorted)
		}
		for q := 0; q < 4; q++ {
			checkEverySource(t, lib, testlib.RandomActivity(r, actionSpace, 5), "focus")
		}
	}

	kept := add(40, base.MaxImplLen()) // no shorter than any predecessor
	check("order-preserving append", kept, true)

	path := filepath.Join(t.TempDir(), "kept.gsnp")
	if err := core.WriteSnapshotFile(path, kept, nil, core.SnapshotOptions{}); err != nil {
		t.Fatalf("WriteSnapshotFile: %v", err)
	}
	snap, err := core.OpenSnapshot(path)
	if err != nil {
		t.Fatalf("OpenSnapshot: %v", err)
	}
	defer snap.Close()
	check("snapshot round trip", snap.Library(), true)

	check("order-breaking append", add(40, 1), false)
}
