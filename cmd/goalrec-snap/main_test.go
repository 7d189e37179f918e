package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"goalrec"
	"goalrec/internal/core"
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

// verify and inspect refuse a snapshot whose bytes no longer match their
// checksum footer, even where the flipped byte leaves every structural check
// intact: here one letter of an action name.
func TestVerifyRefusesChecksumMismatch(t *testing.T) {
	dir := t.TempDir()
	jsonPath, _ := testLibraryFile(t, dir)
	snapPath := filepath.Join(dir, "lib.gsnp")
	if err := run([]string{"convert", jsonPath, snapPath}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	desc, err := core.DescribeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range desc.Sections {
		if s.Name == "vocab-action-names" {
			data[s.Offset] ^= 0x01 // "act-…" becomes "`ct-…"
		}
	}
	if err := os.WriteFile(snapPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"verify", snapPath})
	if !errors.Is(err, core.ErrCorruptSnapshot) || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("verify of a flipped name byte: %v, want a checksum mismatch", err)
	}
	// inspect prints the header-checked layout, then refuses to open the
	// image for its ledger.
	err = run([]string{"inspect", snapPath})
	if !errors.Is(err, core.ErrCorruptSnapshot) || !strings.Contains(err.Error(), snapPath) {
		t.Fatalf("inspect of a flipped name byte: %v, want ErrCorruptSnapshot naming the file", err)
	}
}

// A converted image seals its vocabulary checksum, and inspect names the
// section. Moved past the name blob under a resealed footer, a goal offset
// passes the checksum, so the image opens and serves its checksum and its
// names without a panic, the two implausible names as ids outside the
// dictionary — but verify, which walks every name, refuses it.
func TestVerifyRefusesNamePastBlob(t *testing.T) {
	dir := t.TempDir()
	jsonPath, _ := testLibraryFile(t, dir)
	snapPath := filepath.Join(dir, "lib.gsnp")
	if err := run([]string{"convert", jsonPath, snapPath}); err != nil {
		t.Fatal(err)
	}
	good, err := goalrec.OpenSnapshotFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	want, goals := good.Library().VocabChecksum(), good.Library().Goals()
	good.Close()
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	desc, err := core.DescribeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	var offAt, blobLen uint64
	sealed := false
	for _, s := range desc.Sections {
		switch s.Name {
		case "vocab-goal-offsets":
			offAt = s.Offset
		case "vocab-goal-names":
			blobLen = s.Bytes
		case "vocab-checksum":
			sealed = true
		}
	}
	if !sealed {
		t.Fatal("the converted image lists no vocab-checksum section")
	}
	binary.LittleEndian.PutUint64(data[offAt+8:], blobLen+1)
	end := len(data) - 8
	binary.LittleEndian.PutUint32(data[end+4:], crc32.ChecksumIEEE(data[:end]))
	if err := os.WriteFile(snapPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	snap, err := goalrec.OpenSnapshotFile(snapPath)
	if err != nil {
		t.Fatalf("open of a resealed image: %v", err)
	}
	lib := snap.Library()
	if got := lib.VocabChecksum(); got != want {
		t.Errorf("VocabChecksum %#x, sealed as %#x", got, want)
	}
	served := lib.Goals()
	if served[0] != "goal#0" || served[1] != "goal#1" || !reflect.DeepEqual(served[2:], goals[2:]) {
		t.Errorf("goals %q, want the first two as ids outside the dictionary, the rest %q", served, goals[2:])
	}
	lib.TopGoals([]string{"act-1", "act-5"}, 5)
	snap.Close()
	if err := run([]string{"verify", snapPath}); err == nil || !strings.Contains(err.Error(), "implausible name") {
		t.Fatalf("verify of a goal offset past the blob: %v, want an implausible name", err)
	}
}
