package strategy

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"goalrec/internal/core"
	"goalrec/internal/intset"
	"goalrec/internal/testlib"
)

// openSnapshotLibrary round-trips lib through an on-disk snapshot and returns
// the mmap-backed load.
func openSnapshotLibrary(t *testing.T, lib *core.Library) *core.Library {
	t.Helper()
	path := filepath.Join(t.TempDir(), "lib.gsnp")
	if err := core.WriteSnapshotFile(path, lib, nil, core.SnapshotOptions{}); err != nil {
		t.Fatalf("WriteSnapshotFile: %v", err)
	}
	snap, err := core.OpenSnapshot(path)
	if err != nil {
		t.Fatalf("OpenSnapshot: %v", err)
	}
	t.Cleanup(func() { snap.Close() })
	return snap.Library()
}

// checkSnapshotEquiv asserts that a library loaded back from a snapshot ranks
// bit-identically to the in-memory builder library on every strategy, with
// Focus and Breadth forced onto four workers.
func checkSnapshotEquiv(t *testing.T, lib *core.Library, h []core.ActionID, k int) {
	t.Helper()
	mlib := openSnapshotLibrary(t, lib)
	if mlib.ImplLenSorted() != lib.ImplLenSorted() {
		t.Fatalf("snapshot lost the layout flag (size-sorted %v -> %v)", lib.ImplLenSorted(), mlib.ImplLenSorted())
	}

	type variant struct {
		name string
		mk   func(l *core.Library) Recommender
	}
	var variants []variant
	for _, m := range []FocusMeasure{Completeness, Closeness} {
		variants = append(variants, variant{m.String(), func(l *core.Library) Recommender {
			f := NewFocus(l, m)
			f.SetConcurrency(4, 1)
			return f
		}})
	}
	for _, w := range []BreadthWeighting{Overlap, Count, Union} {
		variants = append(variants, variant{"breadth-" + w.String(), func(l *core.Library) Recommender {
			b := NewBreadthWeighted(l, w)
			b.SetConcurrency(4, 1)
			return b
		}})
	}
	variants = append(variants, variant{"best-match", func(l *core.Library) Recommender { return NewBestMatch(l) }})

	for _, v := range variants {
		want := v.mk(lib).Recommend(h, k)
		got := v.mk(mlib).Recommend(h, k)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: snapshot ranking diverged (k=%d, h=%v):\ngot  %v\nwant %v", v.name, k, h, got, want)
		}
	}
}

// TestSnapshotRankingsMatchBuilder drives all strategies over mmap-loaded
// snapshots of random libraries, alternating plain and impact-ordered
// layouts (the latter exercises the block-max scan's cutoff on mapped
// rows).
func TestSnapshotRankingsMatchBuilder(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 6; trial++ {
		n := 1 + r.Intn(1500)
		actionSpace := 2 + r.Intn(24)
		lib := testlib.RandomLibrary(r, n, actionSpace, 20, 9)
		if trial%2 == 1 {
			lib, _ = core.ImpactOrder(lib)
		}
		h := intset.FromUnsorted(testlib.RandomActivity(r, actionSpace, 6))
		k := 1 + r.Intn(15)
		checkSnapshotEquiv(t, lib, h, k)
	}
}

// FuzzSnapshotRoundTrip derives a random library and activity from the
// fuzzed seeds, writes the library to a snapshot file, loads it back via
// mmap, and asserts every strategy's ranking is bit-identical to the
// in-memory builder library.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add(int64(1), int64(2))
	f.Add(int64(42), int64(77))
	f.Add(int64(-9), int64(1<<40))
	f.Fuzz(func(t *testing.T, libSeed, querySeed int64) {
		r := rand.New(rand.NewSource(libSeed))
		n := 1 + r.Intn(600)
		actionSpace := 2 + r.Intn(30)
		lib := testlib.RandomLibrary(r, n, actionSpace, 15, 8)
		if libSeed%2 == 0 {
			lib, _ = core.ImpactOrder(lib)
		}
		qr := rand.New(rand.NewSource(querySeed))
		h := intset.FromUnsorted(testlib.RandomActivity(qr, actionSpace, 6))
		k := 1 + qr.Intn(12)
		checkSnapshotEquiv(t, lib, h, k)
		// The source table must also hold on the mmap-backed library itself.
		checkEverySource(t, openSnapshotLibrary(t, lib), h, "")
	})
}
