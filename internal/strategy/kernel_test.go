package strategy

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"goalrec/internal/core"
	"goalrec/internal/intset"
	"goalrec/internal/testlib"
)

// TestKernelGatherMatchesView pins the contract each strategy's one scoring
// driver relies on: the counter kernel's gathered (impls, cnt) pairs are the
// naive pairs (p, |A_p ∩ H|) over IS(H) as a set, and the dense counter
// array is all zero by the time a driver runs — after a completed
// accumulation and after one aborted by a canceled context. Activities
// carry duplicates and unknown ids (one negative) or are empty, and the
// libraries alternate between a full library, one of its shards and a
// smaller library, so one reused scratch must grow and stay clean across
// all of them.
func TestKernelGatherMatchesView(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	s := new(scratch)
	aborts := 0
	for trial := 0; trial < 20; trial++ {
		actionSpace := 2 + r.Intn(30)
		full := testlib.RandomLibrary(r, 1+r.Intn(1500), actionSpace, 20, 9)
		n := full.NumImplementations()
		shard, err := core.PartitionRange(full, n/3, n)
		if err != nil {
			t.Fatal(err)
		}
		small := testlib.RandomLibrary(r, 1+r.Intn(40), 1+actionSpace/2, 5, 4)
		for q := 0; q < 6; q++ {
			activity := testlib.RandomActivity(r, actionSpace+4, 8)
			switch q {
			case 0:
				activity = nil
			case 1:
				activity = append(activity, -1, activity[0])
			}
			h := intset.FromUnsorted(intset.Clone(activity))
			for _, lib := range []*core.Library{full, shard, small} {
				if err := s.gather(context.Background(), lib, h); err != nil {
					t.Fatal(err)
				}
				impls, cnt := s.touched, s.counts
				checkCountersZero(t, s, "after gather")
				if len(impls) != len(cnt) {
					t.Fatalf("gathered %d implementations but %d counts", len(impls), len(cnt))
				}
				space := lib.ImplementationSpace(h)
				naive := make([]int32, len(space))
				for i, p := range space {
					naive[i] = int32(intset.IntersectionLen(lib.Actions(p), h))
				}
				if got, want := sortedPairs(impls, cnt), sortedPairs(space, naive); !slices.Equal(got, want) {
					t.Fatalf("kernel pairs differ from the naive ones (h=%v):\ngot  %v\nwant %v", h, got, want)
				}
				// The first poll cancels: every stream of a checkpoint's
				// length or more aborts mid-accumulation.
				if err := s.gather(newCancelAfterPolls(0), lib, h); err != nil {
					if !errors.Is(err, ErrCanceled) {
						t.Fatalf("err = %v, want ErrCanceled", err)
					}
					aborts++
				}
				checkCountersZero(t, s, "after an aborted gather")
			}
		}
	}
	if aborts < 20 {
		t.Fatalf("only %d accumulations aborted", aborts)
	}
}

func checkCountersZero(t *testing.T, s *scratch, when string) {
	t.Helper()
	for p, c := range s.cnt {
		if c != 0 {
			t.Fatalf("%s: counter %d left at %d", when, p, c)
		}
	}
}

// sortedPairs returns the (implementation, count) pairs ordered by
// implementation id.
func sortedPairs(impls []core.ImplID, cnt []int32) [][2]int64 {
	out := make([][2]int64, len(impls))
	for i, p := range impls {
		out[i] = [2]int64{int64(p), int64(cnt[i])}
	}
	slices.SortFunc(out, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	return out
}
