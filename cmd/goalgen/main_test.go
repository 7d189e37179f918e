package main

import (
	"path/filepath"
	"strconv"
	"testing"

	"goalrec"
	"goalrec/internal/dataset"
)

// TestRunWritesLoadableLibrary generates a tiny dataset and loads the
// library back through the public loader: the snapshot must carry the
// generated library unchanged, and its numeric vocabulary must resolve the
// action ids the activity files use.
func TestRunWritesLoadableLibrary(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-dataset", "foodmart", "-scale", "0.01", "-seed", "3", "-out", dir}); err != nil {
		t.Fatal(err)
	}
	want, err := dataset.GenerateFoodMart(dataset.FoodMartConfig{Scale: 0.01, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := goalrec.LoadLibraryFile(filepath.Join(dir, "library.gsnp"))
	if err != nil {
		t.Fatalf("loading goalgen's library: %v", err)
	}
	if g, w := got.NumImplementations(), want.Library.NumImplementations(); g != w {
		t.Errorf("NumImplementations = %d, want %d", g, w)
	}
	if g, w := got.Stats(), want.Library.Stats(); g != w {
		t.Errorf("Stats = %+v, want %+v", g, w)
	}
	names := map[string]bool{}
	for _, a := range got.Actions() {
		names[a] = true
	}
	for i := 0; i < want.Library.NumActions(); i++ {
		if !names[strconv.Itoa(i)] {
			t.Fatalf("action %d has no name %q in the loaded library", i, strconv.Itoa(i))
		}
	}
	if len(names) != want.Library.NumActions() {
		t.Errorf("%d action names, want %d", len(names), want.Library.NumActions())
	}
}
