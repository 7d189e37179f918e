package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"goalrec/internal/faultfs"
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
	snap, err := OpenSnapshotVerified(nil, src, KeyIs(key))
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

// linkRacer is a filesystem whose Link first renames another file over the
// link's source: the sidecar replaced between its checks and its link.
type linkRacer struct {
	faultfs.FS
	other string
}

func (r linkRacer) Link(oldname, newname string) error {
	if err := os.Rename(r.other, oldname); err != nil {
		return err
	}
	return r.FS.Link(oldname, newname)
}

// TestLinkSnapshotFile: a keyed snapshot whose header carries the library's
// epoch becomes the destination by a hard link, the serialiser's image byte
// for byte, and a second link to the same destination does nothing; at
// another epoch nothing happens and the caller is told to copy. A source the
// checks refuse, a link the filesystem refuses, and a source replaced while
// it was linked each leave nothing behind, the latter two as ErrLinkFailed;
// a failed sync of the link is the destination's error.
func TestLinkSnapshotFile(t *testing.T) {
	dir := t.TempDir()
	parsed, vocab, err := ReadJSONLines(bytes.NewReader(benchShapeJSONL(3, 2000, 300)))
	if err != nil {
		t.Fatal(err)
	}
	lib := parsed.WithEpoch(7)
	key := []byte("source-a")
	src := filepath.Join(dir, "src.gsnp")
	if err := WriteSnapshotFile(src, lib, vocab, SnapshotOptions{SourceKey: key}); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := WriteSnapshot(&want, lib, vocab, SnapshotOptions{SourceKey: key}); err != nil {
		t.Fatal(err)
	}
	srcBytes := want.Bytes()

	// nothingLeft fails unless dir holds only src.
	nothingLeft := func(t *testing.T, dir, src string) {
		t.Helper()
		left, _ := filepath.Glob(filepath.Join(dir, "*"))
		tmps, _ := filepath.Glob(filepath.Join(dir, ".snap-*.tmp"))
		if len(left) != 1 || left[0] != src || len(tmps) != 0 {
			t.Fatalf("left %v and temps %v", left, tmps)
		}
	}

	dst := filepath.Join(dir, "dst.gsnp")
	for i := 0; i < 2; i++ {
		inj := faultfs.NewInjector(nil)
		inj.StartTrace()
		if linked, err := LinkSnapshotFileFS(inj, dst, src, key, lib); !linked || err != nil {
			t.Fatalf("link %d: %v, %v", i, linked, err)
		}
		links := 0
		for _, site := range inj.Trace() {
			if site.Op == faultfs.OpLink {
				links++
			}
		}
		if links != 1-i {
			t.Fatalf("link %d made %d links", i, links)
		}
	}
	sfi, serr := os.Stat(src)
	dfi, derr := os.Stat(dst)
	if serr != nil || derr != nil || !os.SameFile(sfi, dfi) {
		t.Fatalf("the destination is not the source's file (%v, %v)", serr, derr)
	}
	if got, err := os.ReadFile(dst); err != nil || !bytes.Equal(got, srcBytes) {
		t.Fatalf("the link differs from the serialiser's image (err %v)", err)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, ".snap-*.tmp")); len(tmps) != 0 {
		t.Fatalf("temps left: %v", tmps)
	}

	otherLib, _, err := ReadJSONLines(bytes.NewReader(benchShapeJSONL(4, 1500, 300)))
	if err != nil {
		t.Fatal(err)
	}
	other := filepath.Join(t.TempDir(), "other.gsnp")
	if err := os.WriteFile(other, flipByte(srcBytes, len(srcBytes)/2), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		file   []byte
		key    string
		lib    *Library
		fs     func(*faultfs.Injector) faultfs.FS
		reason string
		is     error // nil: neither linked nor refused
	}{
		{name: "another epoch", file: srcBytes, key: "source-a", lib: parsed.WithEpoch(8)},
		{name: "another source key", file: srcBytes, key: "source-b", lib: lib, reason: "source key is", is: ErrCopyRefused},
		{name: "another library", file: srcBytes, key: "source-a", lib: otherLib.WithEpoch(7), reason: "file holds", is: ErrCopyRefused},
		{name: "body byte flipped", file: flipByte(srcBytes, len(srcBytes)/2), key: "source-a", lib: lib, reason: "checksum mismatch", is: ErrCopyRefused},
		{name: "header byte flipped", file: flipByte(srcBytes, 20), key: "source-a", lib: lib, reason: "header checksum mismatch", is: ErrCopyRefused},
		{name: "link across devices", file: srcBytes, key: "source-a", lib: lib, reason: "cross-device", is: ErrLinkFailed,
			fs: func(inj *faultfs.Injector) faultfs.FS {
				return inj.Fail(faultfs.Rule{Op: faultfs.OpLink, Err: syscall.EXDEV})
			}},
		{name: "source replaced while linked", file: srcBytes, key: "source-a", lib: lib, reason: "replaced while it was linked", is: ErrLinkFailed,
			fs: func(inj *faultfs.Injector) faultfs.FS { return linkRacer{FS: inj, other: other} }},
		{name: "link sync fails", file: srcBytes, key: "source-a", lib: lib, reason: "injected",
			fs: func(inj *faultfs.Injector) faultfs.FS {
				return inj.Fail(faultfs.Rule{Op: faultfs.OpSync, Path: ".snap-", Err: faultfs.EIO})
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			src, dst := filepath.Join(dir, "src.gsnp"), filepath.Join(dir, "dst.gsnp")
			if err := os.WriteFile(src, tc.file, 0o644); err != nil {
				t.Fatal(err)
			}
			var fsys faultfs.FS = faultfs.NewInjector(nil)
			if tc.fs != nil {
				fsys = tc.fs(faultfs.NewInjector(nil))
			}
			linked, err := LinkSnapshotFileFS(fsys, dst, src, []byte(tc.key), tc.lib)
			switch {
			case linked:
				t.Fatal("linked")
			case tc.reason == "" && err != nil:
				t.Fatalf("link: %v, want nothing done", err)
			case tc.reason != "" && (err == nil || !strings.Contains(err.Error(), tc.reason)):
				t.Fatalf("link: %v, want an error naming %q", err, tc.reason)
			case tc.is != nil && !errors.Is(err, tc.is), tc.is == nil && (errors.Is(err, ErrCopyRefused) || errors.Is(err, ErrLinkFailed)):
				t.Fatalf("link: %v, want errors.Is %v", err, tc.is)
			}
			nothingLeft(t, dir, src)
		})
	}
}
