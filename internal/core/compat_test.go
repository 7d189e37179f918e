package core

import (
	"bytes"
	"encoding/binary"
	"os"
	"slices"
	"strings"
	"testing"
)

// The fixtures under testdata were written by the last release that had the
// size-sorted (impact-ordered) layout. recipes-impact.gsnp is an
// impact-ordered snapshot of testdata/recipes.jsonl at epoch 1: it carries
// the three AG-idx sections, the per-goal walk costs, the four block-max
// sections and the size-sorted header flag, all retired since.
// recipes.jsonl.gsnp is the plain sidecar of testdata/recipes.jsonl written
// by the same release.
const (
	retiredLayoutFixture = "testdata/recipes-impact.gsnp"
	sidecarFixture       = "testdata/recipes.jsonl.gsnp"
)

// retiredSection reports whether id is one of the fixtures' retired sections.
func retiredSection(id uint32) bool {
	return id >= secAgOff && id <= secAgCnt || id == secGoalSlots || id >= secBlkOff && id <= secBlkMaxLen
}

// TestRetiredLayoutSnapshotOpens: a snapshot with the retired AG-idx,
// walk-cost and block sections and flag still describes, opens, verifies and
// scrubs, and a rewrite of it carries none of them.
func TestRetiredLayoutSnapshotOpens(t *testing.T) {
	data, err := os.ReadFile(retiredLayoutFixture)
	if err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint32(data[8:])&snapFlagLenSorted == 0 {
		t.Fatal("the fixture lacks the size-sorted flag it was written with")
	}
	d, err := DescribeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	reserved := 0
	for _, s := range d.Sections {
		if retiredSection(s.ID) {
			reserved++
			if !strings.HasPrefix(s.Name, "reserved-") {
				t.Errorf("retired section %d described as %q, want reserved-…", s.ID, s.Name)
			}
		}
	}
	if reserved != 8 {
		t.Fatalf("the fixture lists %d retired sections, want 8", reserved)
	}
	if err := ScrubSnapshotFile(nil, retiredLayoutFixture); err != nil {
		t.Fatalf("ScrubSnapshotFile: %v", err)
	}
	snap, err := OpenSnapshotVerified(nil, retiredLayoutFixture, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if err := VerifySnapshot(snap); err != nil {
		t.Fatalf("VerifySnapshot: %v", err)
	}
	lib := snap.Library()
	if lib.NumImplementations() != 42 || lib.Epoch() != 1 || lib.MaxImplLen() != int(d.MaxImplLen) || snap.Vocabulary() == nil {
		t.Fatalf("opened %d implementations at epoch %d, max len %d (header %d)",
			lib.NumImplementations(), lib.Epoch(), lib.MaxImplLen(), d.MaxImplLen)
	}
	checkNameTables(t, lib, snap.Vocabulary(), false)

	out := checkResealed(t, lib, snap.Vocabulary())
	if binary.LittleEndian.Uint32(out[8:])&snapFlagLenSorted != 0 {
		t.Error("a rewrite carries the retired size-sorted flag")
	}
	rd, err := DescribeSnapshot(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rd.Sections {
		if retiredSection(s.ID) {
			t.Errorf("a rewrite carries retired section %q", s.Name)
		}
	}
}

// TestGoalSlotsSidecarOpens: the committed sidecar, written while the
// per-goal walk costs were still stored, carries their section, and it
// describes, scrubs, opens, verifies and serves the GA rows of a fresh parse
// of its source, which writes no such section.
func TestGoalSlotsSidecarOpens(t *testing.T) {
	data, err := os.ReadFile(sidecarFixture)
	if err != nil {
		t.Fatal(err)
	}
	d, err := DescribeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	carries := false
	for _, s := range d.Sections {
		if s.ID == secGoalSlots {
			carries = s.Name == "reserved-goal-slots"
		}
	}
	if !carries {
		t.Fatal("the sidecar fixture lacks section 14 described as reserved-goal-slots")
	}
	if err := ScrubSnapshotFile(nil, sidecarFixture); err != nil {
		t.Fatalf("ScrubSnapshotFile: %v", err)
	}
	snap, err := OpenSnapshotVerified(nil, sidecarFixture, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if err := VerifySnapshot(snap); err != nil {
		t.Fatalf("VerifySnapshot: %v", err)
	}

	src, err := os.Open("testdata/recipes.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	want, wantVocab, err := ReadJSONLines(src)
	if err != nil {
		t.Fatal(err)
	}
	got, gotVocab := snap.Library(), snap.Vocabulary()
	checkNameTables(t, got, gotVocab, false)
	for _, d := range []struct{ opened, parsed *Interner }{{gotVocab.Actions, wantVocab.Actions}, {gotVocab.Goals, wantVocab.Goals}} {
		for _, name := range internedNames(d.parsed) {
			want, _ := d.parsed.Lookup(name)
			if id, ok := d.opened.Lookup(name); !ok || id != want {
				t.Fatalf("Lookup(%q) = %d, %v through the built table; the parse has %d", name, id, ok, want)
			}
		}
	}
	checkResealed(t, got, gotVocab)
	if got.NumGoals() != want.NumGoals() || got.NumImplementations() != want.NumImplementations() {
		t.Fatalf("opened %d goals, %d implementations; the parse has %d, %d",
			got.NumGoals(), got.NumImplementations(), want.NumGoals(), want.NumImplementations())
	}
	for g := GoalID(0); int(g) < want.NumGoals(); g++ {
		ga, gc := got.ActionsOfGoal(g)
		wa, wc := want.ActionsOfGoal(g)
		if gotVocab.GoalName(g) != wantVocab.GoalName(g) || !slices.Equal(ga, wa) || !slices.Equal(gc, wc) {
			t.Fatalf("goal %d (%s): GA row %v/%v, the parse's (%s) %v/%v",
				g, gotVocab.GoalName(g), ga, gc, wantVocab.GoalName(g), wa, wc)
		}
	}

	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, want, wantVocab, SnapshotOptions{}); err != nil {
		t.Fatal(err)
	}
	fresh, err := DescribeSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fresh.Sections {
		if s.ID == secGoalSlots {
			t.Error("a fresh image carries section 14")
		}
	}
}

// checkNameTables holds both dictionaries of vocab, lib's, to their tables:
// sealed from the image or built at open as sealed says, and each serving
// every base name at its id and missing a name it does not hold. The
// checksum over lib's id spaces is read from the image exactly when the
// tables are: the fixtures predate both and compute it.
func checkNameTables(t *testing.T, lib *Library, vocab *Vocabulary, sealed bool) {
	t.Helper()
	if got := vocab.ChecksumSealed(lib.NumActions(), lib.NumGoals()); got != sealed {
		t.Fatalf("checksum sealed %v, want %v", got, sealed)
	}
	for _, in := range []*Interner{vocab.Actions, vocab.Goals} {
		if st := in.Stats(); st.Sealed != sealed || st.BaseNames == 0 {
			t.Fatalf("name table: %+v, want sealed %v", st, sealed)
		}
		for id, name := range internedNames(in) {
			if got, ok := in.Lookup(name); !ok || int(got) != id {
				t.Fatalf("Lookup(%q) = %d, %v, want %d", name, got, ok, id)
			}
		}
		if id, ok := in.Lookup("no such name"); ok {
			t.Fatalf("an absent name looked up as %d", id)
		}
	}
}

// checkResealed rewrites lib and vocab and returns the image: it carries
// both name tables, which open sealed, serve the same ids and equal the
// tables vocab serves from.
func checkResealed(t *testing.T, lib *Library, vocab *Vocabulary) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, lib, vocab, SnapshotOptions{}); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	d, err := DescribeSnapshot(out)
	if err != nil {
		t.Fatal(err)
	}
	tables := 0
	for _, s := range d.Sections {
		if s.Name == "vocab-action-table" || s.Name == "vocab-goal-table" {
			tables++
		}
	}
	if tables != 2 {
		t.Fatalf("a rewrite carries %d name table sections, want 2", tables)
	}
	snap, err := OpenSnapshotBytes(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySnapshot(snap); err != nil {
		t.Fatalf("VerifySnapshot of the rewrite: %v", err)
	}
	checkNameTables(t, snap.Library(), snap.Vocabulary(), true)
	nA, nG := lib.NumActions(), lib.NumGoals()
	if got, want := snap.Vocabulary().Checksum(nA, nG), vocab.Checksum(nA, nG); got != want {
		t.Fatalf("the rewrite sealed checksum %#x, its names hash to %#x", got, want)
	}
	if !slices.Equal(snap.Vocabulary().Actions.base.tab, vocab.Actions.base.tab) ||
		!slices.Equal(snap.Vocabulary().Goals.base.tab, vocab.Goals.base.tab) {
		t.Fatal("the sealed tables differ from the ones built at open")
	}
	return out
}
