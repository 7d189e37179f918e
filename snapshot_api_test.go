package goalrec

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func snapshotAPILibrary(t *testing.T) *Library {
	t.Helper()
	b := NewBuilder()
	for i := 0; i < 120; i++ {
		if err := b.AddImplementation(
			fmt.Sprintf("goal-%d", i%11),
			fmt.Sprintf("act-%d", i%23),
			fmt.Sprintf("act-%d", (i*3)%23),
			fmt.Sprintf("act-%d", (i*5)%31),
		); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestSaveOpenSnapshotFile(t *testing.T) {
	lib := snapshotAPILibrary(t)
	activity := []string{"act-1", "act-3", "act-5"}
	path := filepath.Join(t.TempDir(), "lib.gsnp")
	if err := lib.SaveSnapshotFile(path, true); !errors.Is(err, ErrCompressedPostings) {
		t.Fatalf("SaveSnapshotFile(compress=true): error %v, want ErrCompressedPostings", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a refused compressed save left a file behind (%v)", err)
	}
	if err := lib.SaveSnapshotFile(path, false); err != nil {
		t.Fatal(err)
	}
	snap, err := OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := snap.Library()
	if got.NumImplementations() != lib.NumImplementations() {
		t.Fatalf("%d implementations, want %d", got.NumImplementations(), lib.NumImplementations())
	}
	for _, s := range []Strategy{FocusCompleteness, Breadth, BestMatch} {
		want := lib.MustRecommender(s).Recommend(activity, 8)
		have := got.MustRecommender(s).Recommend(activity, 8)
		if !reflect.DeepEqual(have, want) {
			t.Fatalf("%s rankings differ across snapshot", s)
		}
	}
	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
}

// LoadLibraryFile must route "GSNP" files to the mmap loader while keeping
// JSON sniffing intact.
func TestLoadLibraryFileSniffsSnapshot(t *testing.T) {
	lib := snapshotAPILibrary(t)
	path := filepath.Join(t.TempDir(), "lib.gsnp")
	if err := lib.SaveSnapshotFile(path, false); err != nil {
		t.Fatal(err)
	}
	got, err := LoadLibraryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumImplementations() != lib.NumImplementations() ||
		len(got.Actions()) != len(lib.Actions()) {
		t.Fatal("snapshot loaded via LoadLibraryFile differs")
	}
}
