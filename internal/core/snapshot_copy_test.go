package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCopySnapshotFile: a copy of a keyed snapshot restamped with the
// library's epoch is byte-identical to the serialiser's image of that
// library; every source the copy cannot vouch for is refused, naming why,
// with nothing left at the destination; a destination failure is not a
// refusal.
func TestCopySnapshotFile(t *testing.T) {
	dir := t.TempDir()
	lib, vocab, err := ReadJSONLines(bytes.NewReader(benchShapeJSONL(3, 2000, 300)))
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("source-a")
	src := filepath.Join(dir, "src.gsnp")
	if err := WriteSnapshotFile(src, lib, vocab, SnapshotOptions{SourceKey: key}); err != nil {
		t.Fatal(err)
	}
	snap, err := OpenSnapshotKeyed(nil, src, key)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	stamped := snap.Library().WithEpoch(7)
	var want bytes.Buffer
	if err := WriteSnapshot(&want, stamped, snap.Vocabulary(), SnapshotOptions{SourceKey: key}); err != nil {
		t.Fatal(err)
	}
	srcBytes, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}

	dst := filepath.Join(dir, "dst.gsnp")
	if err := CopySnapshotFileFS(nil, dst, src, key, stamped); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(dst); err != nil || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("the copy differs from the serialiser's image (err %v)", err)
	}
	if err := ScrubSnapshotFile(nil, dst); err != nil {
		t.Fatal(err)
	}

	other, _, err := ReadJSONLines(bytes.NewReader(benchShapeJSONL(4, 1500, 300)))
	if err != nil {
		t.Fatal(err)
	}
	var keyless bytes.Buffer
	if err := WriteSnapshot(&keyless, lib, vocab, SnapshotOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		file   []byte // the source's bytes; nil for no file
		key    string
		lib    *Library
		reason string
	}{
		{"missing file", nil, "source-a", stamped, "no such file"},
		{"another source key", srcBytes, "source-b", stamped, "source key is"},
		{"no source key", keyless.Bytes(), "source-a", stamped, "no source key"},
		{"another library", srcBytes, "source-a", other, "file holds"},
		{"bytes after the footer", append(bytes.Clone(srcBytes), 0), "source-a", stamped, "footer not right after"},
		{"truncated", srcBytes[:len(srcBytes)-1], "source-a", stamped, "footer not right after"},
		{"body byte flipped", flipByte(srcBytes, len(srcBytes)/2), "source-a", stamped, "checksum mismatch"},
		{"header byte flipped", flipByte(srcBytes, 20), "source-a", stamped, "header checksum mismatch"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			src, dst := filepath.Join(dir, "src.gsnp"), filepath.Join(dir, "dst.gsnp")
			if tc.file != nil {
				if err := os.WriteFile(src, tc.file, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			err := CopySnapshotFileFS(nil, dst, src, []byte(tc.key), tc.lib)
			if !errors.Is(err, ErrCopyRefused) || !strings.Contains(err.Error(), tc.reason) {
				t.Fatalf("copy: %v, want a refusal naming %q", err, tc.reason)
			}
			left, _ := filepath.Glob(filepath.Join(dir, "*"))
			if len(left) > 1 || len(left) == 1 && left[0] != src {
				t.Fatalf("a refused copy left %v", left)
			}
		})
	}

	err = CopySnapshotFileFS(nil, filepath.Join(dir, "no-such-dir", "dst.gsnp"), src, key, stamped)
	if err == nil || errors.Is(err, ErrCopyRefused) {
		t.Fatalf("copy into a missing directory: %v, want a destination error", err)
	}
}

// flipByte returns a copy of b with the byte at i inverted.
func flipByte(b []byte, i int) []byte {
	c := bytes.Clone(b)
	c[i] ^= 0xff
	return c
}
