package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"goalrec"
)

func testLibraryFile(t *testing.T, dir string) (string, *goalrec.Library) {
	t.Helper()
	b := goalrec.NewBuilder()
	for i := 0; i < 80; i++ {
		if err := b.AddImplementation(fmt.Sprintf("goal-%d", i%9),
			fmt.Sprintf("act-%d", i%13), fmt.Sprintf("act-%d", (i*5)%17)); err != nil {
			t.Fatal(err)
		}
	}
	lib := b.Build()
	path := filepath.Join(dir, "lib.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := lib.SaveJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, lib
}

// JSON -> snapshot -> inspect/verify -> back to JSON, all through the CLI
// entry point.
func TestConvertInspectVerifyRoundTrip(t *testing.T) {
	dir := t.TempDir()
	jsonPath, lib := testLibraryFile(t, dir)
	snapPath := filepath.Join(dir, "lib.gsnp")

	if err := run([]string{"convert", jsonPath, snapPath}); err != nil {
		t.Fatalf("convert to snapshot: %v", err)
	}
	if err := run([]string{"inspect", snapPath}); err != nil {
		t.Fatalf("inspect: %v", err)
	}
	if err := run([]string{"verify", snapPath}); err != nil {
		t.Fatalf("verify: %v", err)
	}

	backPath := filepath.Join(dir, "back.json")
	if err := run([]string{"convert", "-format", "json", snapPath, backPath}); err != nil {
		t.Fatalf("convert back to json: %v", err)
	}
	got, err := goalrec.LoadLibraryFile(backPath)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumImplementations() != lib.NumImplementations() {
		t.Fatalf("round trip lost implementations: %d != %d", got.NumImplementations(), lib.NumImplementations())
	}
}

// Converting a mapped snapshot onto itself as JSON, then that JSON back onto
// itself as a snapshot, must neither fault on the mapping nor change a
// ranking: every output goes through a temp file and a rename.
func TestConvertOntoItself(t *testing.T) {
	dir := t.TempDir()
	jsonPath, lib := testLibraryFile(t, dir)
	path := filepath.Join(dir, "lib.gsnp")
	if err := run([]string{"convert", jsonPath, path}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"convert", "-format", "json", path, path}); err != nil {
		t.Fatalf("snapshot onto itself as json: %v", err)
	}
	if err := run([]string{"convert", path, path}); err != nil {
		t.Fatalf("json onto itself as snapshot: %v", err)
	}
	if err := run([]string{"verify", path}); err != nil {
		t.Fatal(err)
	}
	got, err := goalrec.LoadLibraryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	activity := []string{"act-1", "act-5", "act-10"}
	for _, s := range []goalrec.Strategy{goalrec.FocusCompleteness, goalrec.FocusCloseness, goalrec.Breadth, goalrec.BestMatch} {
		want := lib.MustRecommender(s).Recommend(activity, 10)
		have := got.MustRecommender(s).Recommend(activity, 10)
		if !reflect.DeepEqual(have, want) {
			t.Fatalf("%s rankings changed across the in-place conversions:\n have %v\n want %v", s, have, want)
		}
	}
}

// A convert that fails leaves an existing output byte for byte as it was,
// with no temp file beside it.
func TestConvertFailureLeavesOutput(t *testing.T) {
	dir := t.TempDir()
	jsonPath, _ := testLibraryFile(t, dir)
	want, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.bin")
	if err := os.WriteFile(bad, []byte("GLIB not a library"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"json", "snapshot"} {
		if err := run([]string{"convert", "-format", format, bad, jsonPath}); err == nil {
			t.Fatalf("-format %s: converting an unreadable input succeeded", format)
		}
		got, err := os.ReadFile(jsonPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("-format %s: failed convert changed its output", format)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Fatalf("failed converts left files behind: %v", ents)
	}
}

func TestRunRejectsBadUsage(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"bogus"},
		{"inspect"},
		{"verify"},
		{"convert", "only-one-arg"},
		{"convert", "-format", "yaml", "a", "b"},
		{"convert", "-format", "binary", "a", "b"},
		{"diff", "a", "b", "c"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}
