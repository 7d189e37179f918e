package goalrec

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// copyFixture copies a fixture of internal/core/testdata to dst.
func copyFixture(t *testing.T, name, dst string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("internal", "core", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStoreRecoversRetiredLayoutSnapshot: a store whose newest snapshot was
// written in the retired impact-ordered layout recovers its epoch and serves
// the library the file holds.
func TestStoreRecoversRetiredLayoutSnapshot(t *testing.T) {
	dir := t.TempDir()
	copyFixture(t, "recipes-impact.gsnp", filepath.Join(dir, fmt.Sprintf("snap-%016d.gsnp", 1)))
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Engine().Epoch(); got != 1 {
		t.Fatalf("recovered epoch %d, want 1", got)
	}
	want, err := OpenSnapshotFile(filepath.Join("internal", "core", "testdata", "recipes-impact.gsnp"))
	if err != nil {
		t.Fatal(err)
	}
	defer want.Close()
	assertServesLike(t, want.Library(), s.Engine().Snapshot())
}

// TestSidecarWrittenBeforeStaysAHit: a plain sidecar written by the release
// that still had a second layout keeps its key, so it loads as a hit, and
// answers the parse's vocabulary checksum.
func TestSidecarWrittenBeforeStaysAHit(t *testing.T) {
	src := filepath.Join(t.TempDir(), "recipes.jsonl")
	copyFixture(t, "recipes.jsonl", src)
	copyFixture(t, "recipes.jsonl"+SidecarSuffix, src+SidecarSuffix)
	lib, decision, err := LoadLibraryFileMapped(src)
	if err != nil {
		t.Fatal(err)
	}
	if decision != SidecarHit {
		t.Fatalf("decision %q, want %q", decision, SidecarHit)
	}
	ref := parseReference(t, src)
	assertServesLike(t, ref, lib)
	// Sealed before the name tables and the vocabulary checksum were, it
	// builds the one and computes the other.
	if v := lib.Backing().Vocab; v.Table != "built" || v.Checksum != "computed" {
		t.Fatalf("vocab ledger %+v, want the table built and the checksum computed", v)
	}
	if got, want := lib.VocabChecksum(), ref.VocabChecksum(); got != want {
		t.Fatalf("checksum %#x, the parse's %#x", got, want)
	}
}
