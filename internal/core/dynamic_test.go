package core

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"goalrec/internal/intset"
)

func TestDynamicLibraryBasics(t *testing.T) {
	d := NewDynamicLibrary()
	if d.Len() != 0 {
		t.Fatalf("Len = %d", d.Len())
	}
	snap0 := d.Snapshot()
	if snap0.NumImplementations() != 0 {
		t.Fatalf("empty snapshot has %d implementations", snap0.NumImplementations())
	}

	if _, err := d.Add(0, actions(0, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Add(1, actions(1, 2)); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}

	// The old snapshot is unaffected; a new one sees the additions.
	if snap0.NumImplementations() != 0 {
		t.Error("old snapshot mutated")
	}
	snap1 := d.Snapshot()
	if snap1.NumImplementations() != 2 {
		t.Errorf("snapshot has %d implementations, want 2", snap1.NumImplementations())
	}
	if got := snap1.ImplsOfAction(1); len(got) != 2 {
		t.Errorf("postings of a1 = %v", got)
	}
}

func TestDynamicLibrarySnapshotCached(t *testing.T) {
	d := NewDynamicLibrary()
	if _, err := d.Add(0, actions(0)); err != nil {
		t.Fatal(err)
	}
	s1 := d.Snapshot()
	s2 := d.Snapshot()
	if s1 != s2 {
		t.Error("consecutive snapshots without writes should be identical")
	}
	if _, err := d.Add(1, actions(1)); err != nil {
		t.Fatal(err)
	}
	if s3 := d.Snapshot(); s3 == s1 {
		t.Error("snapshot not invalidated by write")
	}
}

func TestDynamicLibraryAddValidation(t *testing.T) {
	d := NewDynamicLibrary()
	if _, err := d.Add(0, nil); err == nil {
		t.Error("empty activity accepted")
	}
	if d.Len() != 0 {
		t.Errorf("failed add counted: %d", d.Len())
	}
}

func TestDynamicLibraryBatch(t *testing.T) {
	d := NewDynamicLibrary()
	n, err := d.AddImplementations([]Implementation{
		{Goal: 0, Actions: actions(0, 1)},
		{Goal: 1, Actions: actions(2)},
	})
	if err != nil || n != 2 {
		t.Fatalf("batch add = %d, %v", n, err)
	}
	// A batch with an invalid element stops there and reports the count.
	n, err = d.AddImplementations([]Implementation{
		{Goal: 2, Actions: actions(3)},
		{Goal: -1, Actions: actions(4)},
		{Goal: 3, Actions: actions(5)},
	})
	if err == nil || n != 1 {
		t.Fatalf("partial batch = %d, %v", n, err)
	}
	if d.Len() != 3 {
		t.Errorf("Len = %d, want 3", d.Len())
	}
	if snap := d.Snapshot(); snap.NumImplementations() != 3 {
		t.Errorf("snapshot = %d implementations", snap.NumImplementations())
	}
}

func TestDynamicLibraryConcurrent(t *testing.T) {
	d := NewDynamicLibrary()
	var wg sync.WaitGroup
	const writers, perWriter = 8, 50
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := d.Add(GoalID(w), actions(ActionID(w), ActionID(i))); err != nil {
					t.Error(err)
					return
				}
				if i%10 == 0 {
					// Readers interleave with writers.
					snap := d.Snapshot()
					if snap.NumImplementations() == 0 {
						t.Error("snapshot lost writes")
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if d.Len() != writers*perWriter {
		t.Errorf("Len = %d, want %d", d.Len(), writers*perWriter)
	}
	snap := d.Snapshot()
	if snap.NumImplementations() != writers*perWriter {
		t.Errorf("snapshot = %d implementations", snap.NumImplementations())
	}
}

func TestDynamicLibraryEpochs(t *testing.T) {
	d := NewDynamicLibrary()
	s0 := d.Snapshot()
	if s0.Epoch() != 0 {
		t.Fatalf("initial epoch = %d", s0.Epoch())
	}
	if _, err := d.Add(0, actions(0, 1)); err != nil {
		t.Fatal(err)
	}
	s1 := d.Snapshot()
	if s1.Epoch() != 1 {
		t.Errorf("epoch after first write = %d, want 1", s1.Epoch())
	}
	if d.Snapshot().Epoch() != 1 {
		t.Error("snapshot without writes advanced the epoch")
	}
	if _, err := d.Add(1, actions(2)); err != nil {
		t.Fatal(err)
	}
	if got := d.Snapshot().Epoch(); got != 2 {
		t.Errorf("epoch after second write = %d, want 2", got)
	}
	if s1.Epoch() != 1 {
		t.Error("old snapshot's epoch mutated")
	}

	b := NewBuilder(1, 1)
	if _, err := b.Add(5, actions(7)); err != nil {
		t.Fatal(err)
	}
	swapped := d.Swap(b.Build())
	if swapped.Epoch() != 3 {
		t.Errorf("epoch after swap = %d, want 3", swapped.Epoch())
	}
	if got := swapped.NumImplementations(); got != 1 {
		t.Errorf("swapped snapshot has %d implementations", got)
	}
	// The lineage keeps extending past the swapped-in library.
	if _, err := d.Add(6, actions(7, 8)); err != nil {
		t.Fatal(err)
	}
	s4 := d.Snapshot()
	if s4.Epoch() != 4 || s4.NumImplementations() != 2 {
		t.Errorf("post-swap extend: epoch=%d impls=%d", s4.Epoch(), s4.NumImplementations())
	}
	if got := s4.ImplsOfAction(7); len(got) != 2 {
		t.Errorf("postings of a7 after swap+extend = %v", got)
	}
	if swapped.NumImplementations() != 1 {
		t.Error("swapped snapshot mutated by later append")
	}
}

// libraryEqual asserts two libraries are observationally identical:
// statistics, per-implementation content, and every index row.
func libraryEqual(t *testing.T, got, want *Library) {
	t.Helper()
	if g, w := got.Stats(), want.Stats(); g != w {
		t.Fatalf("stats\n got %+v\nwant %+v", g, w)
	}
	for p := 0; p < want.NumImplementations(); p++ {
		id := ImplID(p)
		if got.Goal(id) != want.Goal(id) {
			t.Fatalf("impl %d goal = %d, want %d", p, got.Goal(id), want.Goal(id))
		}
		if !intset.Equal(got.Actions(id), want.Actions(id)) {
			t.Fatalf("impl %d actions = %v, want %v", p, got.Actions(id), want.Actions(id))
		}
	}
	for a := ActionID(0); int(a) < want.NumActions(); a++ {
		if !intset.Equal(got.ImplsOfAction(a), want.ImplsOfAction(a)) {
			t.Fatalf("IS(%d) = %v, want %v", a, got.ImplsOfAction(a), want.ImplsOfAction(a))
		}
	}
	for g := GoalID(0); int(g) < want.NumGoals(); g++ {
		if !intset.Equal(got.ImplsOfGoal(g), want.ImplsOfGoal(g)) {
			t.Fatalf("impls of goal %d = %v, want %v", g, got.ImplsOfGoal(g), want.ImplsOfGoal(g))
		}
		ga, gc := got.ActionsOfGoal(g)
		wa, wc := want.ActionsOfGoal(g)
		if !intset.Equal(ga, wa) || !slices.Equal(gc, wc) {
			t.Fatalf("GA row of goal %d = %v/%v, want %v/%v", g, ga, gc, wa, wc)
		}
	}
}

// TestDynamicLibraryIncrementalEquivalence drives random add sequences
// through snapshots taken at every step — crossing several compactions via a
// tiny threshold — and checks each snapshot against a cold Builder.Build
// over the same implementations.
func TestDynamicLibraryIncrementalEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	d := NewDynamicLibrary()
	d.compactMin = 7 // cross the overlay/compaction boundary many times
	b := NewBuilder(0, 0)
	var holds []*Library // every 10th snapshot, re-verified at the end
	var refs []*Library
	for i := 0; i < 300; i++ {
		g := GoalID(rng.Intn(20))
		n := 1 + rng.Intn(5)
		acts := make([]ActionID, n)
		for j := range acts {
			acts[j] = ActionID(rng.Intn(40))
		}
		if _, err := d.Add(g, acts); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Add(g, acts); err != nil {
			t.Fatal(err)
		}
		snap := d.Snapshot()
		if snap.Epoch() != uint64(i+1) {
			t.Fatalf("epoch = %d at step %d", snap.Epoch(), i)
		}
		want := b.Build()
		libraryEqual(t, snap, want)
		if i%10 == 0 {
			holds = append(holds, snap)
			refs = append(refs, want)
		}
	}
	// Old snapshots still return their epoch's results after all appends.
	for i, snap := range holds {
		libraryEqual(t, snap, refs[i])
	}
}

// snapshotImage returns the canonical snapshot image of l stamped with the
// given epoch: every index row, the block metadata and the layout scalars, as
// the serializer reads them through the accessor surface.
func snapshotImage(t *testing.T, l *Library, epoch uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, l.WithEpoch(epoch), nil, SnapshotOptions{}); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	return buf.Bytes()
}

// TestDynamicBaseTailOverlay is the table for the segmented implementation
// CSR and the paged overlay: whatever a lineage adopts as its base — heap
// arrays, a mapped snapshot, or another lineage's extended snapshot — every
// publish on top of it must be indistinguishable from Builder.Build over the
// same implementations, accessor by accessor and byte for byte in the
// canonical snapshot image, across compactions. Every snapshot is checked
// again after all later ones exist: epochs share overlay pages and the tail's
// backing arrays, and a write through either is the bug this catches.
func TestDynamicBaseTailOverlay(t *testing.T) {
	const nAct, nGoal = 70, 40
	rng := rand.New(rand.NewSource(11))
	draw := func(wide bool) Implementation {
		acts := make([]ActionID, 1+rng.Intn(5))
		span := nAct
		if wide {
			span += 200 // ids past the base's spaces: new overlay pages, new rows
		}
		for j := range acts {
			acts[j] = ActionID(rng.Intn(span))
		}
		return Implementation{Goal: GoalID(rng.Intn(span * nGoal / nAct)), Actions: acts}
	}
	var seed []Implementation
	for i := 0; i < 400; i++ {
		seed = append(seed, draw(false))
	}
	build := func(impls []Implementation) *Library {
		b := NewBuilder(len(impls), 3)
		for _, impl := range impls {
			if _, err := b.Add(impl.Goal, impl.Actions); err != nil {
				t.Fatal(err)
			}
		}
		return b.Build()
	}

	sources := []struct {
		name string
		open func(t *testing.T) (*Library, []Implementation)
	}{
		{"heap", func(t *testing.T) (*Library, []Implementation) { return build(seed), seed }},
		{"mapped", func(t *testing.T) (*Library, []Implementation) {
			return snapshotRoundTrip(t, build(seed), nil, SnapshotOptions{}).Library(), seed
		}},
		{"already-extended", func(t *testing.T) (*Library, []Implementation) {
			other := NewDynamicLibrary()
			other.SetCompactionThreshold(1 << 30)
			other.Swap(build(seed))
			impls := append([]Implementation(nil), seed...)
			for i := 0; i < 40; i++ {
				impl := draw(i%4 == 0)
				impls = append(impls, impl)
				if _, err := other.Add(impl.Goal, impl.Actions); err != nil {
					t.Fatal(err)
				}
				if i%8 == 7 {
					other.Snapshot()
				}
			}
			ext := other.Snapshot()
			if o := ext.Overlay(); ext.TailImplementations() != 40 || o.ActionRows == 0 || o.GoalRows == 0 {
				t.Fatalf("source is not an extended snapshot: tail %d, overlay %+v", ext.TailImplementations(), o)
			}
			return ext, impls
		}},
	}
	for _, src := range sources {
		t.Run(src.name, func(t *testing.T) {
			lib, impls := src.open(t)
			srcImage := snapshotImage(t, lib, 0)

			d := NewDynamicLibrary()
			d.SetCompactionThreshold(64)
			first := d.Swap(lib)
			assertLibrariesEqual(t, build(impls), first)

			type held struct {
				snap  *Library
				want  *Library
				image []byte
			}
			holds := []held{{first, build(impls), snapshotImage(t, build(impls), first.Epoch())}}
			extended, compacted := 0, 0
			for k := 0; k < 24; k++ {
				for i := 0; i < 8; i++ {
					impl := draw(i == 0)
					impls = append(impls, impl)
					if _, err := d.Add(impl.Goal, impl.Actions); err != nil {
						t.Fatal(err)
					}
				}
				snap := d.Snapshot()
				want := build(impls)
				assertLibrariesEqual(t, want, snap)
				assertTailRuns(t, want, snap)
				image := snapshotImage(t, want, snap.Epoch())
				if !bytes.Equal(snapshotImage(t, snap, snap.Epoch()), image) {
					t.Fatalf("publish %d: snapshot image differs from the flat rebuild's", k)
				}
				if snap.TailImplementations() > 0 {
					extended++
				} else {
					compacted++
				}
				holds = append(holds, held{snap, want, image})
			}
			if extended == 0 || compacted < 2 {
				t.Fatalf("%d extended and %d compacted publishes: the table must cross compactions", extended, compacted)
			}
			for i, h := range holds {
				assertLibrariesEqual(t, h.want, h.snap)
				if !bytes.Equal(snapshotImage(t, h.snap, h.snap.Epoch()), h.image) {
					t.Fatalf("snapshot %d changed after later publishes", i)
				}
			}
			if !bytes.Equal(snapshotImage(t, lib, 0), srcImage) {
				t.Fatal("the adopted library changed under the lineage's appends")
			}
		})
	}
}

// assertTailRuns checks every action row of an extended snapshot: its tail
// run holds only ids appended since the base, and its base run followed by
// its tail run is want's row.
func assertTailRuns(t *testing.T, want, snap *Library) {
	t.Helper()
	for a := ActionID(0); int(a) < snap.NumActions(); a++ {
		base, tail := snap.ActionRows(a)
		if len(tail) > 0 && int(tail[0]) < len(snap.implGoal) {
			t.Fatalf("action %d: tail run %v holds an id of the %d-implementation base", a, tail, len(snap.implGoal))
		}
		if !slicesEq(slices.Concat(base, tail), want.ImplsOfAction(a)) {
			t.Fatalf("action %d: base %v ++ tail %v is not the rebuilt row %v", a, base, tail, want.ImplsOfAction(a))
		}
	}
}

// TestDynamicOverlayHoldsTheDelta: an extended snapshot's overlay holds the
// ids its ingests appended, not copies of the base rows they touched. At a
// shape whose action rows average 140 ids, 150 ingests of 8 implementations
// of 3 uniform actions and a new goal each touch about half the rows: 0.23 MB
// of overlay, where copies of the touched rows came to 1.64 MB.
func TestDynamicOverlayHoldsTheDelta(t *testing.T) {
	const nImpl, nAct = 200_000, 5_000
	base := snapTestLibrary(t, nImpl, nAct, 54)
	if avg := base.NumPostings() / nAct; avg < 100 {
		t.Fatalf("action rows average %d ids, want at least 100", avg)
	}
	d := NewDynamicLibrary()
	d.Swap(base)
	rng := rand.New(rand.NewSource(54))
	for k := 0; k < 150; k++ {
		for i := 0; i < 8; i++ {
			acts := []ActionID{ActionID(rng.Intn(nAct)), ActionID(rng.Intn(nAct)), ActionID(rng.Intn(nAct))}
			if _, err := d.Add(GoalID(d.Snapshot().NumGoals()), acts); err != nil {
				t.Fatal(err)
			}
		}
		d.Snapshot()
	}
	snap := d.Snapshot()
	if snap.TailImplementations() != 150*8 {
		t.Fatalf("%d implementations in the tail, want %d: the lineage compacted", snap.TailImplementations(), 150*8)
	}
	const limit = 512 << 10
	if ov := snap.IndexBytes().Overlay; ov >= limit {
		t.Fatalf("overlay holds %d bytes over %d action rows, limit %d", ov, snap.Overlay().ActionRows, limit)
	} else {
		t.Logf("overlay holds %d bytes over %d action rows and %d goal rows", ov, snap.Overlay().ActionRows, snap.Overlay().GoalRows)
	}
}

// TestDynamicPublishCostIndependentOfHistory: a publish pays for the rows
// and overlay pages it touches, not for the backlog since the last flat
// build — with every snapshot retained, as lagging user views retain them.
func TestDynamicPublishCostIndependentOfHistory(t *testing.T) {
	d := NewDynamicLibrary()
	d.SetCompactionThreshold(1 << 30)
	d.Swap(snapTestLibrary(t, 20_000, 2_000, 9))
	rng := rand.New(rand.NewSource(3))
	var retained []*Library
	publish := func(n int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for k := 0; k < n; k++ {
			for i := 0; i < 8; i++ {
				acts := []ActionID{ActionID(rng.Intn(2_000)), ActionID(rng.Intn(2_000)), ActionID(rng.Intn(2_000))}
				if _, err := d.Add(GoalID(rng.Intn(6_000)), acts); err != nil {
					t.Fatal(err)
				}
			}
			retained = append(retained, d.Snapshot())
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first := publish(64)
	publish(512 - 128)
	last := publish(64)
	if last > 2*first {
		t.Fatalf("the last 64 of 512 publishes allocated %d bytes, the first 64 %d: publish cost grows with history", last, first)
	}
	if n := retained[len(retained)-1].NumImplementations(); n != 20_000+512*8 {
		t.Fatalf("last snapshot has %d implementations", n)
	}
}
