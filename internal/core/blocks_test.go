package core

import (
	"math/rand"
	"testing"
)

// checkBlocks verifies every action's block metadata against a brute-force
// derivation from the posting row and the implementation lengths.
func checkBlocks(t *testing.T, lib *Library) {
	t.Helper()
	maxLen := 0
	for p := 0; p < lib.NumImplementations(); p++ {
		if n := lib.ImplLen(ImplID(p)); n > maxLen {
			maxLen = n
		}
	}
	if got := lib.MaxImplLen(); got != maxLen {
		t.Fatalf("MaxImplLen = %d, want %d", got, maxLen)
	}
	for a := 0; a < lib.NumActions(); a++ {
		row := lib.ImplsOfAction(ActionID(a))
		blk := lib.ActionPostingBlocks(ActionID(a))
		wantBlocks := (len(row) + PostingBlockEntries - 1) / PostingBlockEntries
		if blk.NumBlocks() != wantBlocks {
			t.Fatalf("action %d: NumBlocks = %d, want %d (row %d)", a, blk.NumBlocks(), wantBlocks, len(row))
		}
		for j := 0; j < wantBlocks; j++ {
			lo := j * PostingBlockEntries
			hi := lo + PostingBlockEntries
			if hi > len(row) {
				hi = len(row)
			}
			mn, mx := int32(1)<<30, int32(0)
			for _, p := range row[lo:hi] {
				n := int32(lib.ImplLen(p))
				if n < mn {
					mn = n
				}
				if n > mx {
					mx = n
				}
			}
			if blk.Last[j] != row[hi-1] || blk.MinLen[j] != mn || blk.MaxLen[j] != mx {
				t.Fatalf("action %d block %d: got (last %d, min %d, max %d), want (%d, %d, %d)",
					a, j, blk.Last[j], blk.MinLen[j], blk.MaxLen[j], row[hi-1], mn, mx)
			}
		}
	}
}

func TestPostingBlocksBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		// Small action spaces force multi-block rows on larger libraries.
		checkBlocks(t, randomLibrary(r, 1+r.Intn(600), 1+r.Intn(8), 10))
	}
	checkBlocks(t, (&Builder{}).Build()) // empty library
}

func TestPostingBlocksOnDynamicSnapshots(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	d := NewDynamicLibrary()
	d.SetCompactionThreshold(1 << 30) // force the extend (overlay) path
	for round := 0; round < 6; round++ {
		for i := 0; i < 120; i++ {
			size := 1 + r.Intn(5)
			acts := make([]ActionID, size)
			for j := range acts {
				acts[j] = ActionID(r.Intn(6))
			}
			if _, err := d.Add(GoalID(r.Intn(10)), acts); err != nil {
				t.Fatal(err)
			}
		}
		checkBlocks(t, d.Snapshot())
	}
}
