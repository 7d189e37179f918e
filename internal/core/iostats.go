package core

import (
	"sync/atomic"

	"goalrec/internal/faultfs"
)

// IOStats counts the work this process's snapshot files have cost it since
// it started: what the verified open, the store's link and copy, and the
// scrub opened, read, checksummed and mapped, plus the library sources a
// sidecar load hashed. Every counter only grows; unlike MappedSnapshots,
// Mmaps and BytesMapped keep counting mappings that were released.
type IOStats struct {
	// SnapshotOpens counts snapshot files opened to be verified, linked,
	// copied or scrubbed.
	SnapshotOpens int64 `json:"snapshot_opens"`
	// SnapshotBytesRead counts the bytes read from them through read
	// calls; a mapping's page faults are not reads.
	SnapshotBytesRead int64 `json:"snapshot_bytes_read"`
	// BytesChecksummed counts the bytes of snapshot images checked against
	// their whole-file checksum footer, the footer included: a file's size
	// per pass.
	BytesChecksummed int64 `json:"bytes_checksummed"`
	// Mmaps and BytesMapped count the snapshot mappings made and their size.
	Mmaps       int64 `json:"mmaps"`
	BytesMapped int64 `json:"bytes_mapped"`
	// SourceBytesHashed counts the library-source bytes that went through
	// SHA-256 to key a sidecar (CountSourceHashed).
	SourceBytesHashed int64 `json:"source_bytes_hashed"`
}

// ioCount holds the process-wide counters IOStats reports.
var ioCount struct {
	opens, read, checksummed, mmaps, mapped, hashed atomic.Int64
}

// ReadIOStats returns the process's snapshot I/O counters.
func ReadIOStats() IOStats {
	return IOStats{
		SnapshotOpens:     ioCount.opens.Load(),
		SnapshotBytesRead: ioCount.read.Load(),
		BytesChecksummed:  ioCount.checksummed.Load(),
		Mmaps:             ioCount.mmaps.Load(),
		BytesMapped:       ioCount.mapped.Load(),
		SourceBytesHashed: ioCount.hashed.Load(),
	}
}

// CountSourceHashed adds n library-source bytes hashed to key a sidecar.
func CountSourceHashed(n int) { ioCount.hashed.Add(int64(n)) }

// countedFile is a snapshot file whose reads are counted in IOStats.
type countedFile struct{ faultfs.File }

// openCounted opens the snapshot file at path for reading and counts the
// open.
func openCounted(fsys faultfs.FS, path string) (countedFile, error) {
	f, err := faultfs.Or(fsys).Open(path)
	if err != nil {
		return countedFile{}, err
	}
	ioCount.opens.Add(1)
	return countedFile{f}, nil
}

func (f countedFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	ioCount.read.Add(int64(n))
	return n, err
}

func (f countedFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	ioCount.read.Add(int64(n))
	return n, err
}
