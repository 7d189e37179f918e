package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// diffTestLibraries returns a base snapshot library and an extended successor
// (same lineage, later epoch) plus their full snapshot images.
func diffTestLibraries(t *testing.T, opts SnapshotOptions) (baseLib, newLib *Library, baseImg, fullImg []byte) {
	t.Helper()
	d := NewDynamicLibrary()
	addSome := func(n, seed int) {
		for i := 0; i < n; i++ {
			acts := []ActionID{ActionID((i + seed) % 37), ActionID((i * 7) % 37), ActionID((i*i + seed) % 37)}
			if _, err := d.Add(GoalID(i%11), acts); err != nil {
				t.Fatalf("add: %v", err)
			}
		}
	}
	addSome(1500, 1)
	baseLib = d.Snapshot()
	addSome(400, 3)
	newLib = d.Snapshot()
	if baseLib.Epoch() == newLib.Epoch() {
		t.Fatalf("epochs did not advance: %d", baseLib.Epoch())
	}
	var bb, fb bytes.Buffer
	if err := WriteSnapshot(&bb, baseLib, nil, opts); err != nil {
		t.Fatalf("WriteSnapshot(base): %v", err)
	}
	if err := WriteSnapshot(&fb, newLib, nil, opts); err != nil {
		t.Fatalf("WriteSnapshot(new): %v", err)
	}
	return baseLib, newLib, bb.Bytes(), fb.Bytes()
}

// TestSnapshotDiffMaterializeBitIdentical is the core delta invariant:
// materialize(diff(new, base), base) must reproduce WriteSnapshot(new) byte
// for byte, raw and compressed, and the delta must actually reference base
// bytes rather than inlining everything.
func TestSnapshotDiffMaterializeBitIdentical(t *testing.T) {
	for _, compress := range []bool{false, true} {
		opts := SnapshotOptions{CompressPostings: compress}
		baseLib, newLib, baseImg, fullImg := diffTestLibraries(t, opts)
		base, err := NewSnapshotBase(baseImg)
		if err != nil {
			t.Fatalf("NewSnapshotBase: %v", err)
		}
		var db bytes.Buffer
		if err := WriteSnapshotDiff(&db, newLib, nil, opts, base); err != nil {
			t.Fatalf("WriteSnapshotDiff: %v", err)
		}
		delta := db.Bytes()
		if !IsSnapshotDelta(delta) {
			t.Fatalf("compress=%v: delta not recognized", compress)
		}
		if err := VerifySnapshotChecksum(bytes.NewReader(delta), int64(len(delta))); err != nil {
			t.Fatalf("compress=%v: delta checksum: %v", compress, err)
		}
		secs, _, baseEpoch, err := parseDelta(delta, uint64(len(delta)))
		if err != nil {
			t.Fatalf("parseDelta: %v", err)
		}
		if baseEpoch != baseLib.Epoch() {
			t.Fatalf("compress=%v: delta base epoch %d, want %d", compress, baseEpoch, baseLib.Epoch())
		}
		var ref uint64
		for _, d := range secs {
			ref += d.refLen
		}
		if ref == 0 {
			t.Fatalf("compress=%v: delta references no base bytes", compress)
		}
		got, err := MaterializeDelta(delta, base)
		if err != nil {
			t.Fatalf("MaterializeDelta: %v", err)
		}
		if !bytes.Equal(got, fullImg) {
			t.Fatalf("compress=%v: materialized image differs from full snapshot (%d vs %d bytes)", compress, len(got), len(fullImg))
		}
		s, err := OpenSnapshotBytes(got)
		if err != nil {
			t.Fatalf("open materialized: %v", err)
		}
		assertLibrariesEqual(t, newLib, s.Library())
	}
}

// TestSnapshotDiffSelfIsAllReference diffs a library against its own
// snapshot: every section must be a whole reference and the delta an order
// of magnitude smaller than the full image.
func TestSnapshotDiffSelfIsAllReference(t *testing.T) {
	baseLib, _, baseImg, _ := diffTestLibraries(t, SnapshotOptions{})
	base, err := NewSnapshotBase(baseImg)
	if err != nil {
		t.Fatalf("NewSnapshotBase: %v", err)
	}
	var db bytes.Buffer
	if err := WriteSnapshotDiff(&db, baseLib, nil, SnapshotOptions{}, base); err != nil {
		t.Fatalf("WriteSnapshotDiff: %v", err)
	}
	delta := db.Bytes()
	secs, _, _, err := parseDelta(delta, uint64(len(delta)))
	if err != nil {
		t.Fatalf("parseDelta: %v", err)
	}
	for _, d := range secs {
		if d.inlineLen() != 0 && d.count > 0 {
			t.Fatalf("section %d inlines %d bytes on a self-diff", d.id, d.inlineLen())
		}
	}
	if len(delta)*10 > len(baseImg) {
		t.Fatalf("self-diff is %d bytes against a %d-byte base", len(delta), len(baseImg))
	}
	got, err := MaterializeDelta(delta, base)
	if err != nil {
		t.Fatalf("MaterializeDelta: %v", err)
	}
	if !bytes.Equal(got, baseImg) {
		t.Fatalf("self-diff did not round-trip")
	}
}

// TestSnapshotDiffDetectsBaseRot flips a referenced base byte and expects
// materialization to fail on the recorded prefix crc.
func TestSnapshotDiffDetectsBaseRot(t *testing.T) {
	_, newLib, baseImg, _ := diffTestLibraries(t, SnapshotOptions{})
	base, err := NewSnapshotBase(baseImg)
	if err != nil {
		t.Fatalf("NewSnapshotBase: %v", err)
	}
	var db bytes.Buffer
	if err := WriteSnapshotDiff(&db, newLib, nil, SnapshotOptions{}, base); err != nil {
		t.Fatalf("WriteSnapshotDiff: %v", err)
	}
	delta := db.Bytes()
	secs, _, _, err := parseDelta(delta, uint64(len(delta)))
	if err != nil {
		t.Fatalf("parseDelta: %v", err)
	}
	// Corrupt one byte inside the largest referenced prefix.
	var victim deltaSection
	for _, d := range secs {
		if d.refLen > victim.refLen {
			victim = d
		}
	}
	if victim.refLen == 0 {
		t.Fatalf("no referenced section to corrupt")
	}
	rotted := bytes.Clone(baseImg)
	bs := base.secs[victim.id]
	rotted[bs.off+victim.refLen/2] ^= 0x40
	rottedBase, err := NewSnapshotBase(rotted)
	if err != nil {
		t.Fatalf("NewSnapshotBase(rotted): %v", err)
	}
	if _, err := MaterializeDelta(delta, rottedBase); err == nil {
		t.Fatalf("materialize over rotted base succeeded")
	}
}

// TestSnapshotDiffWrongBaseEpoch materializes against a base of a different
// epoch and expects a refusal.
func TestSnapshotDiffWrongBaseEpoch(t *testing.T) {
	_, newLib, baseImg, fullImg := diffTestLibraries(t, SnapshotOptions{})
	base, err := NewSnapshotBase(baseImg)
	if err != nil {
		t.Fatalf("NewSnapshotBase: %v", err)
	}
	var db bytes.Buffer
	if err := WriteSnapshotDiff(&db, newLib, nil, SnapshotOptions{}, base); err != nil {
		t.Fatalf("WriteSnapshotDiff: %v", err)
	}
	wrong, err := NewSnapshotBase(fullImg) // the new full image: later epoch
	if err != nil {
		t.Fatalf("NewSnapshotBase(full): %v", err)
	}
	if _, err := MaterializeDelta(db.Bytes(), wrong); err == nil {
		t.Fatalf("materialize against wrong-epoch base succeeded")
	}
}

// TestScrubSnapshotFileDelta scrubs a delta file on disk: clean passes, a
// flipped payload byte is classified as corruption (ErrCorruptSnapshot).
func TestScrubSnapshotFileDelta(t *testing.T) {
	_, newLib, baseImg, _ := diffTestLibraries(t, SnapshotOptions{CompressPostings: true})
	base, err := NewSnapshotBase(baseImg)
	if err != nil {
		t.Fatalf("NewSnapshotBase: %v", err)
	}
	path := filepath.Join(t.TempDir(), "snap-1.gsnpd")
	if err := WriteSnapshotDiffFile(path, newLib, nil, SnapshotOptions{CompressPostings: true}, base); err != nil {
		t.Fatalf("WriteSnapshotDiffFile: %v", err)
	}
	if err := ScrubSnapshotFile(nil, path); err != nil {
		t.Fatalf("scrub clean delta: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	data[len(data)-snapFooterSize-1] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := ScrubSnapshotFile(nil, path); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("scrub corrupt delta: got %v, want ErrCorruptSnapshot", err)
	}
}
