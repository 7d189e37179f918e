// Package faultfs is the injectable filesystem behind goalrec's persistence
// stack. Every durable component — the WAL writer, the snapshot writer and
// reader, the store's compaction and pruning — performs its I/O through the
// FS interface instead of calling the os package directly, so tests and the
// torture harness (see the nested torture package) can script disk faults at
// any individual operation: short writes, fsync errors, ENOSPC after a byte
// budget, a torn temp+rename, an error that fires once versus one that
// sticks.
//
// Production code pays one interface dispatch per filesystem call (syscalls
// dwarf it); the default OS implementation is a stateless passthrough.
package faultfs

import (
	"io"
	"os"
)

// Op names one class of filesystem operation; fault rules match on it.
type Op uint8

const (
	// OpAny matches every operation in a fault rule.
	OpAny Op = iota
	OpOpen
	OpOpenFile
	OpCreateTemp
	OpRead
	OpReadAt
	OpWrite
	OpWriteAt
	OpSeek
	OpSync
	OpTruncate
	OpClose
	OpRename
	OpRemove
	OpReadDir
	OpMkdirAll
	OpStat
	OpSyncDir
	OpLink
)

var opNames = [...]string{
	OpAny: "any", OpOpen: "open", OpOpenFile: "openfile", OpCreateTemp: "createtemp",
	OpRead: "read", OpReadAt: "readat", OpWrite: "write", OpWriteAt: "writeat",
	OpSeek: "seek", OpSync: "sync", OpTruncate: "truncate", OpClose: "close",
	OpRename: "rename", OpRemove: "remove", OpReadDir: "readdir",
	OpMkdirAll: "mkdirall", OpStat: "stat", OpSyncDir: "syncdir", OpLink: "link",
}

// String returns the operation's lowercase name.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "op?"
}

// File is the per-handle surface the persistence stack needs: sequential and
// positioned reads and writes, metadata, truncation, and durability. *os.File
// satisfies it directly.
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.WriterAt
	io.Seeker
	io.Closer
	Name() string
	Stat() (os.FileInfo, error)
	Sync() error
	Truncate(size int64) error
	// Fd exposes the underlying descriptor for memory mapping. Mapped reads
	// bypass fault injection by construction; faults on mmap-backed data are
	// modeled by corrupting the file instead.
	Fd() uintptr
}

// FS is the filesystem surface the persistence stack runs on. OS is the
// passthrough default; Injector wraps any FS with scriptable faults.
type FS interface {
	Open(name string) (File, error)
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	// Link makes newname a hard link to the file at oldname.
	Link(oldname, newname string) error
	Remove(name string) error
	ReadDir(name string) ([]os.DirEntry, error)
	MkdirAll(path string, perm os.FileMode) error
	Stat(name string) (os.FileInfo, error)
	// SyncDir fsyncs the directory itself, making a just-created or
	// just-renamed name durable across power loss.
	SyncDir(dir string) error
}

// OS is the passthrough FS over the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) Open(name string) (File, error) { return os.Open(name) }

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Link(oldname, newname string) error { return os.Link(oldname, newname) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) Stat(name string) (os.FileInfo, error) { return os.Stat(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	// Some filesystems reject fsync on directories; the name is then as
	// durable as the platform allows, which matches what the os package
	// offers. The close error still surfaces.
	if err := d.Sync(); err != nil {
		_ = d.Close()
		return nil
	}
	return d.Close()
}

// Or returns fsys, or OS when fsys is nil — the idiom every FS-threaded
// option field resolves through.
func Or(fsys FS) FS {
	if fsys == nil {
		return OS
	}
	return fsys
}
