package core_test

import (
	"os"
	"path/filepath"
	"testing"

	"goalrec/internal/core"
	"goalrec/internal/intset"
	"goalrec/internal/strategy"
)

// FuzzOpenSnapshotVerified mutates a valid image — a flipped byte, a cut
// tail, a stripped checksum footer — and opens it without accept: the open
// must refuse it or yield a snapshot that VerifySnapshot accepts and that
// every strategy answers without a panic.
func FuzzOpenSnapshotVerified(f *testing.F) {
	var fixtures [][]byte
	for _, name := range []string{"testdata/recipes.jsonl.gsnp", "testdata/recipes-impact.gsnp"} {
		b, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		fixtures = append(fixtures, b)
	}
	for which := range fixtures {
		w := uint8(which)
		f.Add(w, uint32(0), byte(0), uint32(0), false)    // untouched
		f.Add(w, uint32(0), byte(0), uint32(0), true)     // footer stripped
		f.Add(w, uint32(9), byte(0xff), uint32(0), false) // header flags
		f.Add(w, uint32(70), byte(1), uint32(0), true)    // section table
		f.Add(w, uint32(6000), byte(4), uint32(0), true)  // section body, footerless
		f.Add(w, uint32(6000), byte(4), uint32(0), false) // section body
		f.Add(w, uint32(0), byte(0), uint32(100), false)  // truncated
	}
	f.Fuzz(func(t *testing.T, which uint8, off uint32, xor byte, cut uint32, strip bool) {
		b := append([]byte(nil), fixtures[int(which)%len(fixtures)]...)
		if strip {
			b = b[:len(b)-8]
		}
		b[int(off)%len(b)] ^= xor
		b = b[:len(b)-int(cut)%len(b)]
		path := filepath.Join(t.TempDir(), "lib.gsnp")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		snap, err := core.OpenSnapshotVerified(nil, path, nil)
		if err != nil {
			return
		}
		defer snap.Close()
		if err := core.VerifySnapshot(snap); err != nil {
			t.Fatalf("an opened image fails VerifySnapshot: %v", err)
		}
		lib := snap.Library()
		n := core.ActionID(lib.NumActions())
		recs := []strategy.Recommender{
			strategy.NewFocus(lib, strategy.Completeness),
			strategy.NewFocus(lib, strategy.Closeness),
			strategy.NewBreadth(lib),
			strategy.NewBestMatch(lib),
		}
		for _, activity := range [][]core.ActionID{{0}, {0, n / 3, n / 2, n - 1}, {n}} {
			h := intset.FromUnsorted(activity)
			for _, rec := range recs {
				rec.Recommend(h, 10)
				rec.Recommend(h, -1)
			}
		}
	})
}
