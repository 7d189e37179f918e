package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"goalrec/internal/faultfs"
)

// TestSnapshotChecksumFooter: a fresh snapshot scrubs clean; flipping any
// single byte — header, section payload, or padding — fails the scrub.
func TestSnapshotChecksumFooter(t *testing.T) {
	lib := snapTestLibrary(t, 500, 40, 7)
	path := filepath.Join(t.TempDir(), "lib.gsnp")
	if err := WriteSnapshotFile(path, lib, nil, SnapshotOptions{}); err != nil {
		t.Fatalf("WriteSnapshotFile: %v", err)
	}
	if err := ScrubSnapshotFile(nil, path); err != nil {
		t.Fatalf("scrub of a fresh snapshot: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySnapshotChecksum(bytes.NewReader(data), int64(len(data))); err != nil {
		t.Fatalf("VerifySnapshotChecksum: %v", err)
	}
	// Flip one byte at a spread of offsets, including deep in section data
	// where the header CRC cannot see, and at the end of the file just before
	// the footer.
	for _, off := range []int{0, 17, snapHeaderSize + 3, len(data) / 2, len(data) - snapFooterSize - 1} {
		corrupt := append([]byte(nil), data...)
		corrupt[off] ^= 0x40
		if err := VerifySnapshotChecksum(bytes.NewReader(corrupt), int64(len(corrupt))); err == nil {
			t.Fatalf("flip at %d passed the checksum scrub", off)
		}
	}
}

// TestScrubSnapshotFileDetectsCorruption: a bit flip in a section body slips
// past OpenSnapshot (header CRC only) but not past the scrubber.
func TestScrubSnapshotFileDetectsCorruption(t *testing.T) {
	lib := snapTestLibrary(t, 500, 40, 8)
	path := filepath.Join(t.TempDir(), "lib.gsnp")
	if err := WriteSnapshotFile(path, lib, nil, SnapshotOptions{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSnapshot(path); err != nil {
		t.Fatalf("OpenSnapshot should not see a section-body flip at open time: %v", err)
	}
	err = ScrubSnapshotFile(nil, path)
	if err == nil {
		t.Fatal("scrub missed a section-body bit flip")
	}
	if !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("scrub error = %v, want a checksum mismatch", err)
	}
}

// TestScrubSnapshotFileLegacy: an image without a footer (pre-footer format,
// simulated by truncating it away) falls back to structural verification and
// still passes.
func TestScrubSnapshotFileLegacy(t *testing.T) {
	lib := snapTestLibrary(t, 500, 40, 9)
	path := filepath.Join(t.TempDir(), "lib.gsnp")
	if err := WriteSnapshotFile(path, lib, nil, SnapshotOptions{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	legacy := data[:len(data)-snapFooterSize]
	if err := VerifySnapshotChecksum(bytes.NewReader(legacy), int64(len(legacy))); !errors.Is(err, ErrNoChecksum) {
		t.Fatalf("footerless image: %v, want ErrNoChecksum", err)
	}
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ScrubSnapshotFile(nil, path); err != nil {
		t.Fatalf("structural fallback scrub: %v", err)
	}
}

// TestWriteSnapshotFileFaults: injected failures at every step of the atomic
// write (temp create, write, sync, close, rename, dir sync) surface an error
// and never leave a renamed-in-place snapshot behind; a one-shot fault heals
// on retry.
func TestWriteSnapshotFileFaults(t *testing.T) {
	lib := snapTestLibrary(t, 200, 30, 10)
	for _, tc := range []struct {
		name string
		rule faultfs.Rule
	}{
		{"create-temp", faultfs.Rule{Op: faultfs.OpCreateTemp, Err: faultfs.EIO, Once: true}},
		{"write", faultfs.Rule{Op: faultfs.OpWrite, Err: faultfs.ENOSPC, Once: true}},
		{"short-write", faultfs.Rule{Op: faultfs.OpWrite, Short: 100, Err: faultfs.ENOSPC, Once: true}},
		{"sync", faultfs.Rule{Op: faultfs.OpSync, Err: faultfs.EIO, Once: true}},
		{"close", faultfs.Rule{Op: faultfs.OpClose, Err: faultfs.EIO, Once: true}},
		{"rename", faultfs.Rule{Op: faultfs.OpRename, Err: faultfs.EIO, Once: true}},
		{"dir-sync", faultfs.Rule{Op: faultfs.OpSyncDir, Err: faultfs.EIO, Once: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "lib.gsnp")
			inj := faultfs.NewInjector(nil)
			inj.Fail(tc.rule)
			err := WriteSnapshotFileFS(inj, path, lib, nil, SnapshotOptions{})
			if !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("faulted write = %v, want injected error", err)
			}
			// Everything up to rename must leave no visible snapshot. The
			// rename and dir-sync faults may leave one (rename is the commit
			// point); anything present must scrub clean.
			if _, serr := os.Stat(path); serr == nil {
				if verr := ScrubSnapshotFile(nil, path); verr != nil {
					t.Fatalf("visible snapshot after %s fault fails scrub: %v", tc.name, verr)
				}
			} else if tc.name == "dir-sync" {
				t.Fatalf("dir-sync fault happens after the rename; snapshot should exist: %v", serr)
			}
			// One-shot fault: a retry on the same path succeeds end to end.
			if err := WriteSnapshotFileFS(inj, path, lib, nil, SnapshotOptions{}); err != nil {
				t.Fatalf("retry: %v", err)
			}
			if err := ScrubSnapshotFile(inj, path); err != nil {
				t.Fatalf("scrub after retry: %v", err)
			}
			snap, err := OpenSnapshotFS(inj, path)
			if err != nil {
				t.Fatalf("open after retry: %v", err)
			}
			defer snap.Close()
			assertLibrariesEqual(t, lib, snap.Library())
		})
	}
}

// TestVerifySnapshotChecksumAnyBuffer: the streaming verifier gives the same
// verdicts whatever its buffer size — in particular when the 8-byte footer
// straddles two reads — on a clean image, a flipped byte and a lost footer.
func TestVerifySnapshotChecksumAnyBuffer(t *testing.T) {
	lib := snapTestLibrary(t, 500, 40, 11)
	var img bytes.Buffer
	if err := WriteSnapshot(&img, lib, nil, SnapshotOptions{SourceKey: []byte("k")}); err != nil {
		t.Fatal(err)
	}
	data := img.Bytes()
	size := int64(len(data))
	end := size - snapFooterSize
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x04
	straddled := 0
	for buf := int64(snapHeadMax); buf < snapHeadMax+1500; buf++ {
		if end%buf > buf-snapFooterSize {
			straddled++
		}
		if err := verifySnapshotChecksum(bytes.NewReader(data), size, buf); err != nil {
			t.Fatalf("buffer %d: clean image: %v", buf, err)
		}
		if err := verifySnapshotChecksum(bytes.NewReader(flipped), size, buf); !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("buffer %d: flipped byte: %v, want ErrCorruptSnapshot", buf, err)
		}
		if err := verifySnapshotChecksum(bytes.NewReader(data[:end]), end, buf); !errors.Is(err, ErrNoChecksum) {
			t.Fatalf("buffer %d: footerless image: %v, want ErrNoChecksum", buf, err)
		}
	}
	if straddled == 0 {
		t.Fatalf("no buffer size in the sweep split the footer of a %d-byte image", size)
	}
	// A reader that fails is an I/O error, not proof of corruption.
	if err := VerifySnapshotChecksum(bytes.NewReader(data[:size/2]), size); err == nil || errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("short reader: %v, want a bare read error", err)
	}
}

// TestScrubSnapshotFileStreams: scrubbing reads through a fixed buffer, so a
// snapshot of tens of megabytes costs a few megabytes of heap, not its size.
func TestScrubSnapshotFileStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 32 MB snapshot")
	}
	lib := snapTestLibrary(t, 900_000, 50_000, 12)
	path := filepath.Join(t.TempDir(), "big.gsnp")
	if err := WriteSnapshotFile(path, lib, nil, SnapshotOptions{}); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() < 32<<20 {
		t.Fatalf("snapshot is %d bytes; the test wants at least 32 MiB", fi.Size())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := ScrubSnapshotFile(nil, path); err != nil {
		t.Fatalf("scrub: %v", err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
		t.Fatalf("scrubbing a %d-byte snapshot allocated %d bytes, want < 4 MiB", fi.Size(), got)
	}
}

// TestOpenSnapshotKeyed: the keyed open maps a snapshot only when it carries
// the demanded source key and every byte matches the sealed checksum.
func TestOpenSnapshotKeyed(t *testing.T) {
	lib := snapTestLibrary(t, 500, 40, 13)
	dir := t.TempDir()
	path := filepath.Join(dir, "lib.gsnp")
	key := []byte("source-a")
	if err := WriteSnapshotFile(path, lib, nil, SnapshotOptions{SourceKey: key}); err != nil {
		t.Fatal(err)
	}
	snap, err := OpenSnapshotKeyed(nil, path, key)
	if err != nil {
		t.Fatalf("keyed open: %v", err)
	}
	assertLibrariesEqual(t, lib, snap.Library())
	if gens, n := MappedSnapshots(); gens < 1 || n < int64(len(snap.data)) {
		t.Fatalf("MappedSnapshots() = %d, %d with a %d-byte mapping open", gens, n, len(snap.data))
	}
	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	d, err := DescribeSnapshot(data)
	if err != nil || d.SourceKey != string(key) {
		t.Fatalf("DescribeSnapshot source key = %q, %v; want %q", d.SourceKey, err, key)
	}

	if _, err := OpenSnapshotKeyed(nil, path, []byte("source-b")); err == nil {
		t.Fatal("a snapshot of another source was opened")
	}
	unkeyed := filepath.Join(dir, "unkeyed.gsnp")
	if err := WriteSnapshotFile(unkeyed, lib, nil, SnapshotOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSnapshotKeyed(nil, unkeyed, key); err == nil {
		t.Fatal("a snapshot without a source key was opened")
	}
	for name, mutate := range map[string]func([]byte) []byte{
		"body flip":  func(b []byte) []byte { b[len(b)/2] ^= 1; return b },
		"truncated":  func(b []byte) []byte { return b[:len(b)-100] },
		"no footer":  func(b []byte) []byte { return b[:len(b)-snapFooterSize] },
		"bad header": func(b []byte) []byte { b[9] ^= 0xff; return b },
		"empty":      func(b []byte) []byte { return nil },
	} {
		bad := filepath.Join(dir, "bad.gsnp")
		if err := os.WriteFile(bad, mutate(append([]byte(nil), data...)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenSnapshotKeyed(nil, bad, key); err == nil {
			t.Fatalf("%s: a damaged snapshot was opened", name)
		}
	}
}
