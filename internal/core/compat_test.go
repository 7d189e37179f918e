package core

import (
	"bytes"
	"encoding/binary"
	"os"
	"strings"
	"testing"
)

// The fixtures under testdata were written by the last release that had the
// size-sorted (impact-ordered) layout. recipes-impact.gsnp is an
// impact-ordered snapshot of testdata/recipes.jsonl at epoch 1: it carries
// the three AG-idx sections, the four block-max sections and the size-sorted
// header flag, all retired since. recipes.jsonl.gsnp is the plain sidecar of
// testdata/recipes.jsonl.
const retiredLayoutFixture = "testdata/recipes-impact.gsnp"

// retiredSection reports whether id is one of the fixture's retired sections.
func retiredSection(id uint32) bool {
	return id >= secAgOff && id <= secAgCnt || id >= secBlkOff && id <= secBlkMaxLen
}

// TestRetiredLayoutSnapshotOpens: a snapshot with the retired AG-idx and
// block sections and flag still describes, opens, verifies and scrubs, and a
// rewrite of it carries none of them.
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
	if reserved != 7 {
		t.Fatalf("the fixture lists %d retired sections, want 7", reserved)
	}
	if err := ScrubSnapshotFile(nil, retiredLayoutFixture); err != nil {
		t.Fatalf("ScrubSnapshotFile: %v", err)
	}
	snap, err := OpenSnapshot(retiredLayoutFixture)
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

	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, lib, snap.Vocabulary(), SnapshotOptions{}); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
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
