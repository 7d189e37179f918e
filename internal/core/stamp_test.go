package core

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"goalrec/internal/faultfs"
)

// TestReadSnapshotSource: the verified open hands accept the source key and
// stamp an image was written with, the zero stamp when it carries none, and
// the stamp section is sealed by the whole-file checksum like every other. A
// refusal by accept reads nothing past the key and stamp sections.
func TestReadSnapshotSource(t *testing.T) {
	f := newVerifiedOpenFixture(t)
	runVerifiedOpenCases(t, f, []verifiedOpenCase{
		{name: "stamp handed to accept", file: f.stamped, accept: acceptSource(f.key, f.stamp)},
		{name: "no stamp hands the zero stamp", file: f.keyed, accept: acceptSource(f.key, FileStamp{})},
		{name: "other stamp refused", file: f.stamped, accept: acceptSource(f.key, FileStamp{}), reason: "accept got"},
		{name: "stamp byte flipped", file: f.flip(f.stampAt + 8), accept: KeyIs(f.key), reason: "checksum mismatch", is: ErrCorruptSnapshot},
	})

	// A refusal by accept: the header, the key and the stamp are all that
	// was read.
	path := filepath.Join(t.TempDir(), "lib.gsnp")
	if err := os.WriteFile(path, f.stamped, 0o644); err != nil {
		t.Fatal(err)
	}
	inj := faultfs.NewInjector(nil)
	inj.StartTrace()
	if _, err := OpenSnapshotVerified(inj, path, acceptSource(f.key, FileStamp{})); err == nil {
		t.Fatal("an image with another stamp was accepted")
	}
	var ops []string
	for _, site := range inj.Trace() {
		ops = append(ops, site.Op.String())
	}
	if got, want := strings.Join(ops, " "), "open stat readat readat readat close"; got != want {
		t.Fatalf("a refused open did %q, want %q", got, want)
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
