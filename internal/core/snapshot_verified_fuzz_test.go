package core_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"goalrec/internal/core"
	"goalrec/internal/intset"
	"goalrec/internal/strategy"
)

// FuzzOpenSnapshotVerified mutates a valid image — a flipped byte, a cut
// tail, a stripped checksum footer, or a flipped byte under a footer sealed
// again over it — and opens it without accept. The open must refuse it or
// yield a snapshot whose vocabulary answers every Name, Names, Lookup and
// Checksum without a panic. An image whose footer was not resealed must then
// pass VerifySnapshot; one that passes is answered by every strategy without
// a panic. The images are the two committed fixtures, whose name tables are
// built at open, a rewrite of the first that seals its tables and
// vocabulary checksum, and an image of a library some of whose goals store a
// GA row.
func FuzzOpenSnapshotVerified(f *testing.F) {
	var fixtures [][]byte
	for _, name := range []string{"testdata/recipes.jsonl.gsnp", "testdata/recipes-impact.gsnp"} {
		b, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		fixtures = append(fixtures, b)
	}
	snap, err := core.OpenSnapshotVerified(nil, "testdata/recipes.jsonl.gsnp", nil)
	if err != nil {
		f.Fatal(err)
	}
	var sealed bytes.Buffer
	err = core.WriteSnapshot(&sealed, snap.Library(), snap.Vocabulary(), core.SnapshotOptions{})
	snap.Close()
	if err != nil {
		f.Fatal(err)
	}
	fixtures = append(fixtures, sealed.Bytes())
	d, err := core.DescribeSnapshot(sealed.Bytes())
	if err != nil {
		f.Fatal(err)
	}
	var goalOff uint32
	for _, s := range d.Sections {
		if s.Name == "vocab-goal-offsets" {
			goalOff = uint32(s.Offset)
		}
	}
	// The recipes store no GA row — no two implementations of a goal share
	// an action — so the fourth image is of a library whose goals come in
	// every kind: one implementation, several disjoint ones, several sharing.
	shared := sharingLibraryImage(f)
	fixtures = append(fixtures, shared)
	d, err = core.DescribeSnapshot(shared)
	if err != nil {
		f.Fatal(err)
	}
	sec := make(map[string]uint32)
	for _, s := range d.Sections {
		sec[s.Name] = uint32(s.Offset)
	}
	// Its first goal that stores a GA row: the row's first count, and its
	// end offset, which one byte's flip moves to its start.
	opened, err := core.OpenSnapshotBytes(shared)
	if err != nil {
		f.Fatal(err)
	}
	g := core.GoalID(0)
	for ; int(g) < opened.Library().NumGoals(); g++ {
		if acts, _ := opened.Library().StoredGoalRow(g); len(acts) > 0 {
			break
		}
	}
	rows := shared[sec["ga-offsets"]:]
	start, end := binary.LittleEndian.Uint32(rows[4*g:]), binary.LittleEndian.Uint32(rows[4*g+4:])
	if int(g) == opened.Library().NumGoals() || start^end > 0xff {
		f.Fatalf("goal %d: no GA row whose end a byte's flip moves to its start [%d, %d)", g, start, end)
	}
	countFlip := byte(2)
	if shared[sec["ga-counts"]] == 2 {
		countFlip = 1
	}
	for which := range fixtures {
		w := uint8(which)
		f.Add(w, uint32(0), byte(0), uint32(0), false, false)    // untouched
		f.Add(w, uint32(0), byte(0), uint32(0), true, false)     // footer stripped
		f.Add(w, uint32(9), byte(0xff), uint32(0), false, false) // header flags
		f.Add(w, uint32(70), byte(1), uint32(0), true, false)    // section table
		f.Add(w, uint32(6000), byte(4), uint32(0), true, false)  // section body, footerless
		f.Add(w, uint32(6000), byte(4), uint32(0), false, false) // section body
		f.Add(w, uint32(6000), byte(4), uint32(0), false, true)  // section body, footer resealed
		f.Add(w, uint32(0), byte(0), uint32(100), false, false)  // truncated
	}
	// Goal offset 1 of the sealed rewrite moved 2^24 bytes past the blob,
	// under a footer that matches.
	f.Add(uint8(2), goalOff+8+3, byte(1), uint32(0), false, true)
	// The first stored GA count of the sealed rewrite changed, and the row of
	// a goal whose implementations share an action emptied, each under a
	// footer that matches.
	f.Add(uint8(3), sec["ga-counts"], countFlip, uint32(0), false, true)
	f.Add(uint8(3), sec["ga-offsets"]+4*uint32(g+1), byte(start^end), uint32(0), false, true)
	f.Fuzz(func(t *testing.T, which uint8, off uint32, xor byte, cut uint32, strip, reseal bool) {
		b := append([]byte(nil), fixtures[int(which)%len(fixtures)]...)
		if strip {
			b = b[:len(b)-8]
		}
		b[int(off)%len(b)] ^= xor
		if reseal && !strip {
			binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-8]))
		}
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
		lib := snap.Library()
		if v := snap.Vocabulary(); v != nil {
			for _, in := range []*core.Interner{v.Actions, v.Goals} {
				for id := int32(-1); id <= int32(in.Len()); id++ {
					in.Lookup(in.Name(id))
				}
			}
			v.Checksum(lib.NumActions(), lib.NumGoals())
		}
		err = core.VerifySnapshot(snap)
		if err != nil && !reseal {
			t.Fatalf("an opened image fails VerifySnapshot: %v", err)
		}
		if err != nil {
			return // a resealed image is trusted as any the footer accepts
		}
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

// sharingLibraryImage writes a small library whose goals have one
// implementation, several action-disjoint ones or several that share an
// action.
func sharingLibraryImage(tb testing.TB) []byte {
	tb.Helper()
	r := rand.New(rand.NewSource(50))
	b := core.NewBuilder(90, 3)
	for i := 0; i < 90; i++ {
		acts := []core.ActionID{core.ActionID(i % 40)}
		if i%3 == 0 {
			acts = append(acts, core.ActionID(r.Intn(40)), core.ActionID(r.Intn(40)))
		}
		if _, err := b.Add(core.GoalID(i%30+i/60), acts); err != nil {
			tb.Fatal(err)
		}
	}
	var out bytes.Buffer
	if err := core.WriteSnapshot(&out, b.Build(), nil, core.SnapshotOptions{}); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}
