package strategy

import (
	"context"
	"testing"

	"goalrec/internal/core"
	"goalrec/internal/xrand"
)

// partialTestLibrary builds a deterministic random library dense enough for
// heavy tie layers (few distinct scores across many implementations).
func partialTestLibrary(t testing.TB, seed uint64, nImpl, nAct, nGoal, maxLen int) *core.Library {
	t.Helper()
	rng := xrand.New(seed)
	b := core.NewBuilder(nImpl, 4)
	for i := 0; i < nImpl; i++ {
		n := 1 + rng.Intn(maxLen)
		acts := make([]core.ActionID, n)
		for j := range acts {
			acts[j] = core.ActionID(rng.Intn(nAct))
		}
		if _, err := b.Add(core.GoalID(rng.Intn(nGoal)), acts); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	return b.Build()
}

func assertSameRanking(t testing.TB, label string, got, want []ScoredAction) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d\n got: %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i].Action != want[i].Action || got[i].Score != want[i].Score {
			t.Fatalf("%s: rank %d: got {%d %v}, want {%d %v}", label, i,
				got[i].Action, got[i].Score, want[i].Action, want[i].Score)
		}
	}
}

// gatherActivities mixes one-action and wide activities, including the last
// action id of the libraries below.
func gatherActivities(nAct int) [][]core.ActionID {
	last := core.ActionID(nAct - 1)
	return [][]core.ActionID{{0, 3, 7}, {1}, {5, 9, 12, 20, last - 2}, {last}}
}

// The three gather tests drive the source table — whose partials/1..3 rows
// merge per-shard partials and compare with the oracle — over libraries dense
// enough for heavy tie layers, where the merge order is all tiebreak. Focus
// shards take the kernel on the plain layout and the block-max scan on the
// impact-ordered one.

func TestFocusGatherMergeMatchesSingleNode(t *testing.T) {
	for _, lib := range testLayouts(t, partialTestLibrary(t, 101, 600, 40, 15, 6)) {
		for _, activity := range gatherActivities(40) {
			checkEverySource(t, lib, activity, "focus")
		}
	}
}

func TestBreadthGatherMergeMatchesSingleNode(t *testing.T) {
	lib := partialTestLibrary(t, 55, 500, 30, 10, 5)
	for _, activity := range gatherActivities(30) {
		checkEverySource(t, lib, activity, "breadth")
	}
}

func TestBestMatchGatherMergeMatchesSingleNode(t *testing.T) {
	lib := partialTestLibrary(t, 91, 400, 25, 14, 5)
	for _, activity := range gatherActivities(25) {
		checkEverySource(t, lib, activity, "best-match")
	}
}

// TestFocusGatherMergeUnderInjectedFloor injects the floor a completed
// shard would broadcast into the remaining shards' scans and checks the
// merge stays exact — the cross-node floor soundness pin. The library is
// impact-ordered, so every shard is size-sorted and scans under the floor.
func TestFocusGatherMergeUnderInjectedFloor(t *testing.T) {
	lib, _ := core.ImpactOrder(partialTestLibrary(t, 77, 800, 35, 12, 6))
	activity := []core.ActionID{2, 6, 11, 19}
	const k = 8
	for _, measure := range []FocusMeasure{Completeness, Closeness} {
		want := newOracle(lib).oracleFocus(activity, measure, k)

		ranges := splitRanges(lib.NumImplementations(), 3)
		lists := make([][]FocusEmission, len(ranges))

		// Shard 0 completes unconstrained; its k-th emission seeds the share
		// every later shard scans under, mimicking the coordinator broadcast.
		share := NewFocusFloorShare()
		var scans PruneStats
		for i, r := range ranges {
			sub, err := core.PartitionRange(lib, r[0], r[1])
			if err != nil {
				t.Fatalf("PartitionRange(%d, %d): %v", r[0], r[1], err)
			}
			f := NewFocus(sub, measure)
			f.CountInto(&scans)
			f.SetConcurrency(2, 1) // force the sharded scan even on small shards
			var s *FocusFloorShare
			if i > 0 {
				s = share
			}
			list, err := f.TopEmissions(context.Background(), activity, k, int64(r[0]), s)
			if err != nil {
				t.Fatalf("TopEmissions: %v", err)
			}
			lists[i] = list
			if len(list) == k {
				FloorFromEmission(share, measure, list[k-1])
			}
		}
		if share.Tightenings() == 0 || scans.Snapshot().BlocksTotal == 0 {
			t.Fatalf("%s: no shard scanned under an injected floor (tightenings=%d, %+v)",
				measure, share.Tightenings(), scans.Snapshot())
		}
		assertSameRanking(t, "floor/"+measure.String(), MergeFocusEmissions(lists, k), want)
	}
}

// TestMergeFocusEmissionsTieBreakAtCutoff pins the gather-merge order
// against the documented total order — score descending, fewer missing
// first, then global implementation id, then action id — with equal-score
// ties straddling the k cutoff across shard boundaries.
func TestMergeFocusEmissionsTieBreakAtCutoff(t *testing.T) {
	// Two shards, every emission at the same score. Shard boundaries fall
	// between impl 10 (shard A) and impls 11/12 (shard B).
	shardA := []FocusEmission{
		{Action: 5, Score: 0.5, Missing: 2, Impl: 10, ImplLen: 4},
		{Action: 7, Score: 0.5, Missing: 2, Impl: 10, ImplLen: 4},
	}
	shardB := []FocusEmission{
		{Action: 3, Score: 0.5, Missing: 2, Impl: 11, ImplLen: 4},
		// Duplicate of action 5 with a worse (higher) impl id: the merge
		// must keep shard A's emission.
		{Action: 5, Score: 0.5, Missing: 2, Impl: 11, ImplLen: 4},
		// Same score but more missing: ranks after every missing=2 entry.
		{Action: 1, Score: 0.5, Missing: 3, Impl: 12, ImplLen: 5},
	}

	got := MergeFocusEmissions([][]FocusEmission{shardA, shardB}, 3)
	want := []ScoredAction{
		{Action: 5, Score: 0.5}, // impl 10, action 5
		{Action: 7, Score: 0.5}, // impl 10, action 7
		{Action: 3, Score: 0.5}, // impl 11, action 3
	}
	assertSameRanking(t, "cutoff", got, want)

	// Widen to k=4: the missing=3 emission is exactly at the new cutoff.
	got = MergeFocusEmissions([][]FocusEmission{shardA, shardB}, 4)
	want = append(want, ScoredAction{Action: 1, Score: 0.5})
	assertSameRanking(t, "cutoff+1", got, want)

	// Equal score and missing, distinct impls: lower global impl id wins
	// regardless of which shard list it arrived in.
	first := MergeFocusEmissions([][]FocusEmission{
		{{Action: 9, Score: 1, Missing: 1, Impl: 40, ImplLen: 2}},
		{{Action: 2, Score: 1, Missing: 1, Impl: 39, ImplLen: 2}},
	}, 1)
	assertSameRanking(t, "impl-order", first, []ScoredAction{{Action: 2, Score: 1}})
}
