package strategy

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"goalrec/internal/core"
	"goalrec/internal/testlib"
)

// View operations of the fuzzed stream; one op is two bytes, (kind, arg).
const (
	opApply        = iota // Apply an id of the library's action space
	opApplyUnknown        // Apply an id the library does not know
	opSwapSmall           // a library of ≤ 10 actions, and a new view of H over it
	opSwapLarge           // as opSwapSmall with ≥ 130 actions (three bitset words and up)
	opSwapMapped          // as opSwapLarge from a snapshot image: rows are views over the image
	numViewOps
)

const maxViewOps = 24

// mappedLibrary round-trips lib through a snapshot image.
func mappedLibrary(t *testing.T, lib *core.Library) *core.Library {
	t.Helper()
	var buf bytes.Buffer
	if err := core.WriteSnapshot(&buf, lib, nil, core.SnapshotOptions{}); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	snap, err := core.OpenSnapshotBytes(buf.Bytes())
	if err != nil {
		t.Fatalf("OpenSnapshotBytes: %v", err)
	}
	return snap.Library()
}

// runViewOps drives a view through ops, starting over a DynamicLibrary
// snapshot (compaction threshold low enough that its rows are both overlaid
// and compacted), and checks the one invariant after every op: the view
// equals a fresh build and every strategy scores it as it scores H from
// scratch.
func runViewOps(t *testing.T, seed int64, ops []byte) {
	r := rand.New(rand.NewSource(seed))
	actionSpace := 2 + r.Intn(24)
	dyn := core.NewDynamicLibrary()
	dyn.SetCompactionThreshold(1 + r.Intn(40))
	for i, n := 0, r.Intn(120); i < n; i++ {
		acts := make([]core.ActionID, 1+r.Intn(6))
		for j := range acts {
			acts[j] = core.ActionID(r.Intn(actionSpace))
		}
		if _, err := dyn.Add(core.GoalID(r.Intn(10)), acts); err != nil {
			t.Fatal(err)
		}
	}
	lib := dyn.Snapshot()
	v := NewCounterView(lib, nil)
	var h []core.ActionID
	check := func(k int) {
		t.Helper()
		checkViewState(t, lib, v, h)
		checkViewEquiv(t, lib, v, h, k)
	}
	check(5)
	for i := 0; i+1 < len(ops) && i < 2*maxViewOps; i += 2 {
		kind, arg := ops[i]%numViewOps, int(ops[i+1])
		switch kind {
		case opApply, opApplyUnknown:
			a := core.ActionID(lib.NumActions() + arg%4)
			if kind == opApply && lib.NumActions() > 0 {
				a = core.ActionID(arg % lib.NumActions())
			}
			v.Apply(a)
			h = append(h, a)
		default:
			n, space := 1+r.Intn(60), 2+arg%9
			if kind != opSwapSmall {
				n, space = 200+r.Intn(400), 130+arg
			}
			lib = testlib.RandomLibrary(r, n, space, 4+arg%20, 7)
			if kind == opSwapMapped {
				lib = mappedLibrary(t, lib)
			}
			v = NewCounterView(lib, h)
		}
		check([]int{-1, 1, 3, 10}[arg%4])
	}
}

// FuzzCounterViewOps is the view's model test: any interleaving of appends
// and new views over other libraries leaves the view equal to a fresh one,
// scored bit-identically by all four strategies. The libraries of one
// stream share the package's scratch pool,
// so a bitset that came back dirty or too short shows as a diverging
// candidate pool or counter. (The collector's append-and-sort fallback for id spaces above
// core's sweep limit is reached by core's own in-package tests: the limit is
// unexported there.)
func FuzzCounterViewOps(f *testing.F) {
	f.Add(int64(1), []byte{}) // the empty view
	// Ids the library does not know, between and after known ones.
	f.Add(int64(2), []byte{opApplyUnknown, 0, opApply, 3, opApplyUnknown, 2, opApply, 9, opApplyUnknown, 17, opApply, 4})
	// A wider library turns the unknown ids of H into known ones.
	f.Add(int64(3), []byte{opApply, 1, opApplyUnknown, 1, opApply, 7, opSwapLarge, 47, opApply, 30, opApplyUnknown, 3, opSwapSmall, 40})
	// Small action space first, then large: the pooled bitset has to grow, and
	// has to come back all zero for the small library that follows.
	f.Add(int64(4), []byte{opSwapSmall, 6, opApply, 0, opApply, 1, opApply, 5, opSwapLarge, 90, opApply, 200, opApply, 77, opSwapSmall, 2, opApply, 1})
	// Postings served from a snapshot image.
	f.Add(int64(5), []byte{opApply, 2, opSwapMapped, 11, opApply, 8, opApply, 140, opApply, 65, opApply, 12, opSwapMapped, 20, opApply, 99})
	// A view that stays empty across new libraries.
	f.Add(int64(6), []byte{opSwapLarge, 1, opSwapMapped, 0, opSwapSmall, 3})
	f.Fuzz(runViewOps)
}

// TestCounterViewsConcurrent drives eight views at once — each owned by one
// goroutine, over two libraries of different sizes, through shared
// recommenders and the shared scratch pool — and checks every score against
// the from-scratch kernel. Run under -race.
func TestCounterViewsConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	libs := []*core.Library{
		testlib.RandomLibrary(r, 300, 24, 12, 6),
		mappedLibrary(t, testlib.RandomLibrary(r, 1500, 400, 60, 7)),
	}
	recs := make([][]Recommender, len(libs))
	for i, lib := range libs {
		recs[i] = []Recommender{NewFocus(lib, Completeness), NewFocus(lib, Closeness), NewBreadth(lib), NewBestMatch(lib)}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lib, mine := libs[g%2], recs[g%2]
			r := rand.New(rand.NewSource(int64(g)))
			for session := 0; session < 6; session++ {
				v := NewCounterView(lib, nil)
				var h []core.ActionID
				for step := 0; step < 10; step++ {
					a := core.ActionID(r.Intn(lib.NumActions() + 2))
					v.Apply(a)
					h = append(h, a)
					for _, rec := range mine {
						got, err := RecommendView(context.Background(), rec, v, 5)
						if err != nil {
							t.Errorf("goroutine %d: %s: %v", g, rec.Name(), err)
							return
						}
						if want := rec.Recommend(h, 5); !reflect.DeepEqual(got, want) {
							t.Errorf("goroutine %d: %s diverged on h=%v:\ngot  %v\nwant %v", g, rec.Name(), h, got, want)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestApplyAllocationBudget: with the scratch pool warm an Apply allocates
// only to grow the view's own arrays — at most once per array that grew — and
// not at all when the action brings no new implementation. The process-wide
// malloc count also sees other goroutines, so each Apply is measured on three
// identical clones of the view and the least count is judged.
func TestApplyAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	// One P and no collection: the scratch put back is the scratch got next.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	lib := benchLibrary(20000, 500, 7)
	for a := 0; a < lib.NumActions(); a++ {
		NewCounterView(lib, []core.ActionID{core.ActionID(a)}) // warm the scratch to the longest row
	}

	caps := func(v *CounterView) [3]int {
		return [3]int{cap(v.h), cap(v.impls), cap(v.cnt)}
	}
	mallocs := func() uint64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.Mallocs
	}
	clone := func(v *CounterView) *CounterView {
		return &CounterView{
			lib:   v.lib,
			h:     append(make([]core.ActionID, 0, cap(v.h)), v.h...),
			impls: append(make([]core.ImplID, 0, cap(v.impls)), v.impls...),
			cnt:   append(make([]int32, 0, cap(v.cnt)), v.cnt...),
		}
	}
	// apply applies a to three clones of v and returns one of them with the
	// least allocation count of the three.
	apply := func(v *CounterView, a core.ActionID) (*CounterView, int) {
		clones := [3]*CounterView{clone(v), clone(v), clone(v)}
		least := -1
		for _, c := range clones {
			m0 := mallocs()
			c.Apply(a)
			if got := int(mallocs() - m0); least < 0 || got < least {
				least = got
			}
		}
		return clones[0], least
	}
	for _, h := range benchQueries(500, 50, 12, 10) {
		v := NewCounterView(lib, nil)
		for _, a := range h {
			was := caps(v)
			next, got := apply(v, a)
			grown := 0
			for i, c := range caps(next) {
				if c != was[i] {
					grown++
				}
			}
			if got > grown {
				t.Fatalf("Apply(%d) on |H|=%d allocated %d times for %d grown arrays", a, v.Len(), got, grown)
			}
			v = next
		}
	}

	// Action 1 occurs only beside action 0: applying it bumps counters and
	// nothing else.
	b := core.NewBuilder(3, 3)
	for _, impl := range [][]core.ActionID{{0, 1}, {0, 2}, {0, 1, 2}} {
		if _, err := b.Add(0, impl); err != nil {
			t.Fatal(err)
		}
	}
	small := b.Build()
	v := NewCounterView(small, []core.ActionID{0, 2})
	v.h = append(make([]core.ActionID, 0, 8), v.h...) // room in H, the one array every Apply extends
	v, got := apply(v, 1)
	if got != 0 {
		t.Fatalf("counter-only Apply allocated %d times", got)
	}
	checkViewState(t, small, v, []core.ActionID{0, 1, 2})
}
