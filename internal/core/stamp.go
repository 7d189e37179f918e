package core

import (
	"encoding/binary"
	"fmt"
	"os"
	"time"
)

// FileStamp identifies one state of a file by its metadata alone: size,
// modification and change times, inode and device. A snapshot may record the
// stamp of the source it was derived from (SnapshotOptions.SourceStamp), so
// that a later open can tell the source is untouched without reading it.
// Where the platform reports no change time, inode or device, those fields
// are zero.
type FileStamp struct {
	Size  int64
	Mtime int64 // ns since the Unix epoch
	Ctime int64 // ns since the Unix epoch
	Ino   uint64
	Dev   uint64
}

// fileStampSize is the encoded length of a FileStamp: five little-endian
// 64-bit words in field order.
const fileStampSize = 40

// StatStamp returns the stamp of fi. complete reports whether fi carried
// the platform's full stat record — change time, inode and device — which
// only Unix platforms provide; an incomplete stamp compares by size and
// modification time, and must never be trusted to stand for content.
func StatStamp(fi os.FileInfo) (s FileStamp, complete bool) {
	s = FileStamp{Size: fi.Size(), Mtime: fi.ModTime().UnixNano()}
	return s, statSys(fi.Sys(), &s)
}

func (s FileStamp) encode() []byte {
	b := make([]byte, fileStampSize)
	binary.LittleEndian.PutUint64(b[0:], uint64(s.Size))
	binary.LittleEndian.PutUint64(b[8:], uint64(s.Mtime))
	binary.LittleEndian.PutUint64(b[16:], uint64(s.Ctime))
	binary.LittleEndian.PutUint64(b[24:], s.Ino)
	binary.LittleEndian.PutUint64(b[32:], s.Dev)
	return b
}

func decodeFileStamp(b []byte) FileStamp {
	return FileStamp{
		Size:  int64(binary.LittleEndian.Uint64(b[0:])),
		Mtime: int64(binary.LittleEndian.Uint64(b[8:])),
		Ctime: int64(binary.LittleEndian.Uint64(b[16:])),
		Ino:   binary.LittleEndian.Uint64(b[24:]),
		Dev:   binary.LittleEndian.Uint64(b[32:]),
	}
}

// String renders the stamp for inspection tooling.
func (s FileStamp) String() string {
	ts := func(ns int64) string { return time.Unix(0, ns).UTC().Format(time.RFC3339Nano) }
	return fmt.Sprintf("size %d mtime %s ctime %s ino %d dev %#x", s.Size, ts(s.Mtime), ts(s.Ctime), s.Ino, s.Dev)
}
