package core

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestReadSnapshotSource: the header-only reader returns the source key and
// stamp a snapshot was written with, the zero stamp when it carries none, and
// the stamp section is sealed by the whole-file checksum like every other.
func TestReadSnapshotSource(t *testing.T) {
	lib := snapTestLibrary(t, 300, 30, 17)
	dir := t.TempDir()
	key := []byte("source-a")
	stamp := FileStamp{Size: 22356395, Mtime: 1_700_000_000_123_456_789, Ctime: 1_700_000_001_000_000_001, Ino: 9781261, Dev: 0xfe00}

	stamped := filepath.Join(dir, "stamped.gsnp")
	if err := WriteSnapshotFile(stamped, lib, nil, SnapshotOptions{SourceKey: key, SourceStamp: stamp}); err != nil {
		t.Fatal(err)
	}
	gotKey, gotStamp, err := ReadSnapshotSource(nil, stamped)
	if err != nil || string(gotKey) != string(key) || gotStamp != stamp {
		t.Fatalf("ReadSnapshotSource = %q, %+v, %v; want %q, %+v", gotKey, gotStamp, err, key, stamp)
	}
	data, err := os.ReadFile(stamped)
	if err != nil {
		t.Fatal(err)
	}
	d, err := DescribeSnapshot(data)
	if err != nil || d.SourceStamp == nil || *d.SourceStamp != stamp {
		t.Fatalf("DescribeSnapshot source stamp = %v, %v; want %+v", d.SourceStamp, err, stamp)
	}
	snap, err := OpenSnapshotKeyed(nil, stamped, key)
	if err != nil {
		t.Fatalf("keyed open of a stamped snapshot: %v", err)
	}
	assertLibrariesEqual(t, lib, snap.Library())
	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
	for _, s := range d.Sections {
		if s.Name == "source-stamp" {
			data[s.Offset+8] ^= 1
		}
	}
	if err := os.WriteFile(stamped, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSnapshotKeyed(nil, stamped, key); err == nil {
		t.Fatal("a snapshot with a flipped stamp byte was opened")
	}

	keyed := filepath.Join(dir, "keyed.gsnp")
	if err := WriteSnapshotFile(keyed, lib, nil, SnapshotOptions{SourceKey: key}); err != nil {
		t.Fatal(err)
	}
	if gotKey, gotStamp, err := ReadSnapshotSource(nil, keyed); err != nil || string(gotKey) != string(key) || gotStamp != (FileStamp{}) {
		t.Fatalf("ReadSnapshotSource of an unstamped snapshot = %q, %+v, %v", gotKey, gotStamp, err)
	}
	unkeyed := filepath.Join(dir, "unkeyed.gsnp")
	if err := WriteSnapshotFile(unkeyed, lib, nil, SnapshotOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadSnapshotSource(nil, unkeyed); err == nil {
		t.Fatal("a snapshot without a source key yielded one")
	}
}

// TestStatStamp: a real file's stamp is complete where the platform reports
// change time, inode and device, and a FileInfo without a stat record only
// ever gives size and modification time.
func TestStatStamp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, []byte("twelve bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	s, complete := StatStamp(fi)
	if s.Size != 12 || s.Mtime != fi.ModTime().UnixNano() {
		t.Fatalf("stamp %+v of a 12-byte file modified at %v", s, fi.ModTime())
	}
	if unix := runtime.GOOS == "linux" || runtime.GOOS == "darwin"; complete != unix || (unix && (s.Ctime == 0 || s.Ino == 0)) {
		t.Fatalf("stamp %+v complete=%v on %s", s, complete, runtime.GOOS)
	}
	if s, complete := StatStamp(noSys{fi}); complete || s.Ctime != 0 || s.Ino != 0 || s.Dev != 0 {
		t.Fatalf("a FileInfo without a stat record gave %+v complete=%v", s, complete)
	}
}

type noSys struct{ os.FileInfo }

func (noSys) Sys() any { return nil }
