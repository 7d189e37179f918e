// Package wal implements the length-prefixed, checksummed write-ahead log
// behind goalrec's durable ingest path. The format is deliberately minimal:
//
//	header:  "GWAL" | u32 version (little-endian)
//	record:  u32 payloadLen | u32 crc32(payload, IEEE) | payload
//
// Records are framed independently, so a reader needs no index; torn tails —
// a crash mid-append leaving a truncated frame or a payload that fails its
// checksum — terminate replay at the last intact record instead of failing
// the log. Everything before the torn point is trusted (each record carries
// its own CRC); the writer truncates the tear away before appending again.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"goalrec/internal/faultfs"
)

var magic = [4]byte{'G', 'W', 'A', 'L'}

const version = uint32(1)

// headerSize is the byte length of the file header.
const headerSize = 8

// frameSize is the byte length of a record frame before its payload.
const frameSize = 8

// MaxPayload bounds a single record. Far above any real ingest batch, low
// enough that a corrupt length prefix cannot force a huge allocation —
// lengths beyond it are treated as a torn/corrupt tail.
const MaxPayload = 64 << 20

// ErrCorrupt marks a log whose header is malformed — as opposed to a torn
// tail, which Replay tolerates silently.
var ErrCorrupt = errors.New("wal: corrupt log header")

// Replay calls fn for every intact record of the log at path, in order, and
// returns the byte offset just past the last intact record — the size the
// file should be truncated to before appending. A missing file replays zero
// records with size 0. fn's payload slice is reused between calls; fn must
// copy anything it keeps. A non-nil error from fn aborts the replay.
func Replay(path string, fn func(payload []byte) error) (int64, error) {
	return ReplayFS(faultfs.OS, path, fn)
}

// ReplayFS is Replay over an explicit filesystem (fault injection; see
// internal/faultfs).
func ReplayFS(fsys faultfs.FS, path string, fn func(payload []byte) error) (int64, error) {
	f, err := fsys.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	defer f.Close()

	// Sized to the log, up to 1 MiB: a store's start replays a header-only
	// log more than once. A failed Stat only leaves the largest buffer.
	size := int64(1 << 20)
	if fi, err := f.Stat(); err == nil {
		size = min(size, fi.Size())
	}
	br := bufio.NewReaderSize(f, int(size))
	var hdr [headerSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil // empty or header-torn file: nothing to replay
		}
		return 0, err
	}
	if [4]byte(hdr[:4]) != magic {
		return 0, fmt.Errorf("%w: bad magic %q", ErrCorrupt, hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != version {
		return 0, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}

	good := int64(headerSize)
	var frame [frameSize]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(br, frame[:]); err != nil {
			return good, nil // clean EOF or torn frame: stop at the last record
		}
		n := binary.LittleEndian.Uint32(frame[0:])
		sum := binary.LittleEndian.Uint32(frame[4:])
		if n > MaxPayload {
			return good, nil // implausible length: treat as a torn tail
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return good, nil // torn payload
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return good, nil // corrupt tail
		}
		if err := fn(payload); err != nil {
			return good, err
		}
		good += frameSize + int64(n)
	}
}

// Writer appends checksummed records to a log file. Not safe for concurrent
// use; callers serialize appends.
type Writer struct {
	f        faultfs.File
	syncEach bool
	size     int64

	// buf is the reusable frame scratch: Append frames every record into it
	// instead of allocating per record, so sustained ingest does not churn
	// the allocator with one garbage buffer per acknowledged write.
	buf []byte
}

// OpenWriter opens (creating if needed) the log at path for appending.
// validSize is the offset Replay returned: anything past it — a torn tail —
// is truncated away first. A fresh or empty log gets the header written and
// synced, and the parent directory fsynced so the log's very name survives
// power loss. syncEach selects fsync-per-append (durable against power loss)
// over write-and-let-the-page-cache-flush (durable against process crash
// only).
func OpenWriter(path string, validSize int64, syncEach bool) (*Writer, error) {
	return OpenWriterFS(faultfs.OS, path, validSize, syncEach)
}

// OpenWriterFS is OpenWriter over an explicit filesystem (fault injection;
// see internal/faultfs).
func OpenWriterFS(fsys faultfs.FS, path string, validSize int64, syncEach bool) (*Writer, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	w := &Writer{f: f, syncEach: syncEach}
	if validSize < headerSize {
		var hdr [headerSize]byte
		copy(hdr[:4], magic[:])
		binary.LittleEndian.PutUint32(hdr[4:], version)
		if err := f.Truncate(0); err != nil {
			_ = f.Close()
			return nil, err
		}
		if _, err := f.WriteAt(hdr[:], 0); err != nil {
			_ = f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return nil, err
		}
		// A fresh log is a fresh directory entry; without the directory
		// fsync a power loss can forget the file while keeping its blocks.
		if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
			_ = f.Close()
			return nil, err
		}
		w.size = headerSize
		return w, nil
	}
	if err := f.Truncate(validSize); err != nil {
		_ = f.Close()
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		_ = f.Close()
		return nil, err
	}
	w.size = validSize
	return w, nil
}

// Append frames payload and writes it to the log, fsyncing when the writer
// was opened with syncEach. The record is written with a single write call,
// so a crash tears at most the final record — which Replay then drops. A
// failed append leaves w.size untouched: the next Append (or Recover)
// overwrites whatever partial frame landed.
func (w *Writer) Append(payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("wal: payload of %d bytes exceeds the %d-byte record limit", len(payload), MaxPayload)
	}
	need := frameSize + len(payload)
	if cap(w.buf) < need {
		w.buf = make([]byte, need)
	}
	rec := w.buf[:need]
	binary.LittleEndian.PutUint32(rec[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(payload))
	copy(rec[frameSize:], payload)
	if _, err := w.f.WriteAt(rec, w.size); err != nil {
		return err
	}
	w.size += int64(need)
	if w.syncEach {
		return w.f.Sync()
	}
	return nil
}

// Size returns the log's current byte size (header plus intact records).
func (w *Writer) Size() int64 { return w.size }

// Sync flushes the log to stable storage.
func (w *Writer) Sync() error { return w.f.Sync() }

// Recover truncates the log back to its last acknowledged size and syncs it,
// discarding whatever a failed Append left behind — including a frame that
// landed intact but was never acknowledged to the caller. It is the
// write-probe a degraded store uses to test whether the disk heals: success
// proves the log is writable and byte-exact again.
func (w *Writer) Recover() error {
	if err := w.f.Truncate(w.size); err != nil {
		return err
	}
	return w.f.Sync()
}

// Close syncs and closes the log.
func (w *Writer) Close() error {
	if err := w.f.Sync(); err != nil {
		_ = w.f.Close()
		return err
	}
	return w.f.Close()
}
