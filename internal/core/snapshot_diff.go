package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"goalrec/internal/faultfs"
)

// Incremental snapshot diffs. A delta snapshot (.gsnpd, container version 2)
// carries the same logical sections as a full snapshot but stores each one as
// a (base-prefix reference, inline tail) pair: when a section's new bytes
// start with the base snapshot's bytes for that section — the normal case for
// the append-mostly CSR arrays after ingest — only the tail is written, and
// the referenced prefix is recorded as {byte length, crc32} against the base.
// Materializing a delta over its base reproduces, bit for bit, the full
// snapshot the same library would have written — so every downstream
// consumer (open, scrub, verify, cold start) sees a canonical v1 image and
// the delta format never leaks past materialization.
//
// Layout (little-endian):
//
//	[0,64)    header — identical fields to v1, version = 2; the CRC at
//	          offset 60 covers header[0:60] + preamble + section table
//	[64,80)   delta preamble: base epoch u64, reserved u64
//	[80,...)  nSec × 40-byte entries: id u32, elem u32, inline off u64,
//	          count u64 (full logical element count), refLen u64 (bytes
//	          referenced from the base section's prefix), refCRC u32,
//	          reserved u32
//	...       64-byte-aligned inline payloads (count*elem − refLen bytes each)
//	footer    GSUM whole-file crc32, as in v1
const (
	snapshotDeltaVersion = 2
	snapDeltaPreSize     = 16
	snapDeltaSectSize    = 40
)

// deltaSection is one parsed delta-table entry.
type deltaSection struct {
	id     uint32
	elem   uint32
	off    uint64 // inline payload offset in the delta file
	count  uint64 // full logical element count of the section
	refLen uint64 // bytes referenced from the base section's prefix
	refCRC uint32
}

func (d deltaSection) inlineLen() uint64 { return d.count*uint64(d.elem) - d.refLen }

// SnapshotBase is a parsed full (v1) snapshot image used as the reference
// side of diffing and materialization. It aliases data; the caller owns the
// lifetime.
type SnapshotBase struct {
	data  []byte
	secs  map[uint32]snapSection
	epoch uint64
}

// NewSnapshotBase parses a full snapshot image for use as a diff base.
func NewSnapshotBase(data []byte) (*SnapshotBase, error) {
	secs, _, err := snapshotSections(data, uint64(len(data)))
	if err != nil {
		return nil, fmt.Errorf("core: delta base: %w", err)
	}
	return &SnapshotBase{data: data, secs: secs, epoch: binary.LittleEndian.Uint64(data[48:])}, nil
}

// Epoch returns the base snapshot's epoch.
func (b *SnapshotBase) Epoch() uint64 { return b.epoch }

// section returns the base's payload bytes for section id, or nil when the
// base has no such section or a mismatched element width.
func (b *SnapshotBase) section(id, elem uint32) []byte {
	s, ok := b.secs[id]
	if !ok || s.elem != elem {
		return nil
	}
	return b.data[s.off : s.off+s.count*uint64(s.elem)]
}

// IsSnapshotDelta reports whether data begins like a delta snapshot.
func IsSnapshotDelta(data []byte) bool {
	return len(data) >= 8 &&
		binary.LittleEndian.Uint32(data[0:]) == snapshotMagic &&
		binary.LittleEndian.Uint32(data[4:]) == snapshotDeltaVersion
}

// parseDelta validates the delta header + table of a size-byte image, of
// which data holds the first bytes (all of them, or at least snapHeadMax),
// and returns the entries in table order plus the header flags and the base
// epoch the delta requires.
func parseDelta(data []byte, size uint64) ([]deltaSection, uint32, uint64, error) {
	if len(data) < snapHeaderSize+snapDeltaPreSize {
		return nil, 0, 0, fmt.Errorf("truncated delta header (%d bytes)", len(data))
	}
	if m := binary.LittleEndian.Uint32(data[0:]); m != snapshotMagic {
		return nil, 0, 0, fmt.Errorf("bad magic %#x", m)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != snapshotDeltaVersion {
		return nil, 0, 0, fmt.Errorf("not a delta snapshot (version %d)", v)
	}
	flags := binary.LittleEndian.Uint32(data[8:])
	nSec := int(binary.LittleEndian.Uint32(data[12:]))
	if nSec <= 0 || nSec > snapMaxSections {
		return nil, 0, 0, fmt.Errorf("implausible section count %d", nSec)
	}
	tableEnd := snapHeaderSize + snapDeltaPreSize + snapDeltaSectSize*nSec
	if tableEnd > len(data) {
		return nil, 0, 0, fmt.Errorf("truncated delta section table (%d sections, %d bytes)", nSec, len(data))
	}
	crc := crc32.ChecksumIEEE(data[:60])
	crc = crc32.Update(crc, crc32.IEEETable, data[snapHeaderSize:tableEnd])
	if want := binary.LittleEndian.Uint32(data[60:]); crc != want {
		return nil, 0, 0, fmt.Errorf("delta header checksum mismatch (%#x != %#x)", crc, want)
	}
	baseEpoch := binary.LittleEndian.Uint64(data[snapHeaderSize:])
	secs := make([]deltaSection, 0, nSec)
	seen := make(map[uint32]bool, nSec)
	for i := 0; i < nSec; i++ {
		e := data[snapHeaderSize+snapDeltaPreSize+snapDeltaSectSize*i:]
		d := deltaSection{
			id:     binary.LittleEndian.Uint32(e[0:]),
			elem:   binary.LittleEndian.Uint32(e[4:]),
			off:    binary.LittleEndian.Uint64(e[8:]),
			count:  binary.LittleEndian.Uint64(e[16:]),
			refLen: binary.LittleEndian.Uint64(e[24:]),
			refCRC: binary.LittleEndian.Uint32(e[32:]),
		}
		if d.elem != 1 && d.elem != 4 && d.elem != 8 {
			return nil, 0, 0, fmt.Errorf("delta section %d: bad element size %d", d.id, d.elem)
		}
		full := d.count * uint64(d.elem)
		if d.refLen > full || d.refLen%uint64(d.elem) != 0 {
			return nil, 0, 0, fmt.Errorf("delta section %d: reference of %d bytes over %d", d.id, d.refLen, full)
		}
		if d.off%snapAlign != 0 {
			return nil, 0, 0, fmt.Errorf("delta section %d: misaligned offset %d", d.id, d.off)
		}
		end := d.off + d.inlineLen()
		if d.off < uint64(tableEnd) || end < d.off || end > size {
			return nil, 0, 0, fmt.Errorf("delta section %d: range [%d, %d) outside file of %d bytes", d.id, d.off, end, size)
		}
		if seen[d.id] {
			return nil, 0, 0, fmt.Errorf("duplicate delta section %d", d.id)
		}
		seen[d.id] = true
		secs = append(secs, d)
	}
	return secs, flags, baseEpoch, nil
}

// renderSection materializes one planned section's payload bytes.
func renderSection(sec *snapSection) ([]byte, error) {
	var buf bytes.Buffer
	sw := &snapWriter{w: bufio.NewWriterSize(&buf, 1<<16)}
	sec.emit(sw)
	if sw.err != nil {
		return nil, sw.err
	}
	if err := sw.w.Flush(); err != nil {
		return nil, err
	}
	if got, want := uint64(buf.Len()), sec.count*uint64(sec.elem); got != want {
		return nil, fmt.Errorf("core: snapshot section %d rendered %d bytes, want %d", sec.id, got, want)
	}
	return buf.Bytes(), nil
}

// WriteSnapshotDiff writes l as a delta snapshot against base. Sections whose
// bytes extend the base's (byte-identical prefix — the common case for the
// append-mostly CSR arrays) store only the tail inline; everything else is
// inlined whole. Materializing the result over the same base reproduces the
// exact bytes WriteSnapshot would emit for l.
func WriteSnapshotDiff(w io.Writer, l *Library, vocab *Vocabulary, opts SnapshotOptions, base *SnapshotBase) error {
	p, err := planSnapshot(l, vocab, opts)
	if err != nil {
		return err
	}
	secs := p.secs
	payloads := make([][]byte, len(secs))
	refLens := make([]uint64, len(secs))
	refCRCs := make([]uint32, len(secs))
	for i := range secs {
		if payloads[i], err = renderSection(&secs[i]); err != nil {
			return err
		}
		if bb := base.section(secs[i].id, secs[i].elem); len(bb) > 0 &&
			len(payloads[i]) >= len(bb) && bytes.Equal(payloads[i][:len(bb)], bb) {
			refLens[i] = uint64(len(bb))
			refCRCs[i] = crc32.ChecksumIEEE(bb)
		}
	}

	// Assign aligned inline offsets; secs[i].off holds the inline position.
	off := alignUp(uint64(snapHeaderSize + snapDeltaPreSize + snapDeltaSectSize*len(secs)))
	for i := range secs {
		secs[i].off = off
		off = alignUp(off + uint64(len(payloads[i])) - refLens[i])
	}

	hdr := p.headerBytes(snapshotDeltaVersion)
	pre := make([]byte, snapDeltaPreSize)
	binary.LittleEndian.PutUint64(pre[0:], base.epoch)
	table := make([]byte, snapDeltaSectSize*len(secs))
	for i, s := range secs {
		e := table[snapDeltaSectSize*i:]
		binary.LittleEndian.PutUint32(e[0:], s.id)
		binary.LittleEndian.PutUint32(e[4:], s.elem)
		binary.LittleEndian.PutUint64(e[8:], s.off)
		binary.LittleEndian.PutUint64(e[16:], s.count)
		binary.LittleEndian.PutUint64(e[24:], refLens[i])
		binary.LittleEndian.PutUint32(e[32:], refCRCs[i])
	}
	crc := crc32.ChecksumIEEE(hdr[:60])
	crc = crc32.Update(crc, crc32.IEEETable, pre)
	crc = crc32.Update(crc, crc32.IEEETable, table)
	binary.LittleEndian.PutUint32(hdr[60:], crc)

	sw := &snapWriter{w: bufio.NewWriterSize(w, 1<<16)}
	sw.write(hdr)
	sw.write(pre)
	sw.write(table)
	for i := range secs {
		sw.padTo(secs[i].off)
		sw.write(payloads[i][refLens[i]:])
	}
	var footer [snapFooterSize]byte
	binary.LittleEndian.PutUint32(footer[0:], snapFooterMagic)
	binary.LittleEndian.PutUint32(footer[4:], sw.crc)
	sw.write(footer[:])
	if sw.err != nil {
		return fmt.Errorf("core: writing snapshot delta: %w", sw.err)
	}
	return sw.w.Flush()
}

// WriteSnapshotDiffFile writes the delta snapshot to path atomically
// (same-directory temp, fsync, rename, directory fsync).
func WriteSnapshotDiffFile(path string, l *Library, vocab *Vocabulary, opts SnapshotOptions, base *SnapshotBase) error {
	return WriteSnapshotDiffFileFS(faultfs.OS, path, l, vocab, opts, base)
}

// WriteSnapshotDiffFileFS is WriteSnapshotDiffFile over an explicit
// filesystem (fault injection; see internal/faultfs).
func WriteSnapshotDiffFileFS(fsys faultfs.FS, path string, l *Library, vocab *Vocabulary, opts SnapshotOptions, base *SnapshotBase) (err error) {
	dir := filepathDir(path)
	f, err := fsys.CreateTemp(dir, ".snapd-*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			_ = f.Close()
			_ = fsys.Remove(tmp)
		}
	}()
	if err = WriteSnapshotDiff(f, l, vocab, opts, base); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = fsys.Rename(tmp, path); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}

// MaterializeDelta reassembles the full v1 snapshot image a delta encodes:
// each section is its referenced base prefix (verified against the recorded
// crc32) followed by the delta's inline tail. The result is bit-identical to
// what WriteSnapshot would have produced for the same library, so it opens,
// verifies and scrubs like any full snapshot.
func MaterializeDelta(delta []byte, base *SnapshotBase) ([]byte, error) {
	secs, _, baseEpoch, err := parseDelta(delta, uint64(len(delta)))
	if err != nil {
		return nil, fmt.Errorf("core: materialize delta: %w", err)
	}
	if base.epoch != baseEpoch {
		return nil, fmt.Errorf("core: materialize delta: delta requires base epoch %d, base has epoch %d", baseEpoch, base.epoch)
	}
	n := len(secs)
	offs := make([]uint64, n)
	off := alignUp(uint64(snapHeaderSize + snapSectSize*n))
	for i, d := range secs {
		offs[i] = off
		off = alignUp(off + d.count*uint64(d.elem))
	}
	imgEnd := offs[n-1] + secs[n-1].count*uint64(secs[n-1].elem)
	out := make([]byte, imgEnd+snapFooterSize)

	// v1 header: the delta header minus version and CRC, which differ.
	copy(out[:snapHeaderSize], delta[:snapHeaderSize])
	binary.LittleEndian.PutUint32(out[4:], snapshotVersion)
	table := out[snapHeaderSize : snapHeaderSize+snapSectSize*n]
	for i, d := range secs {
		e := table[snapSectSize*i:]
		binary.LittleEndian.PutUint32(e[0:], d.id)
		binary.LittleEndian.PutUint32(e[4:], d.elem)
		binary.LittleEndian.PutUint64(e[8:], offs[i])
		binary.LittleEndian.PutUint64(e[16:], d.count)
	}
	crc := crc32.ChecksumIEEE(out[:60])
	crc = crc32.Update(crc, crc32.IEEETable, table)
	binary.LittleEndian.PutUint32(out[60:], crc)

	for i, d := range secs {
		pos := offs[i]
		if d.refLen > 0 {
			bb := base.section(d.id, d.elem)
			if uint64(len(bb)) < d.refLen {
				return nil, fmt.Errorf("core: materialize delta: section %d references %d base bytes, base has %d", d.id, d.refLen, len(bb))
			}
			pref := bb[:d.refLen]
			if got := crc32.ChecksumIEEE(pref); got != d.refCRC {
				return nil, fmt.Errorf("core: materialize delta: section %d base content mismatch (%#x != %#x)", d.id, got, d.refCRC)
			}
			copy(out[pos:], pref)
			pos += d.refLen
		}
		copy(out[pos:], delta[d.off:d.off+d.inlineLen()])
	}
	binary.LittleEndian.PutUint32(out[imgEnd:], snapFooterMagic)
	binary.LittleEndian.PutUint32(out[imgEnd+4:], crc32.ChecksumIEEE(out[:imgEnd]))
	return out, nil
}

// SnapshotDeltaInfo reads just enough of the delta file at path to return its
// own epoch and the base epoch it references, without loading the payloads.
func SnapshotDeltaInfo(fsys faultfs.FS, path string) (epoch, baseEpoch uint64, err error) {
	fsys = faultfs.Or(fsys)
	f, err := fsys.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	head := make([]byte, snapHeaderSize+snapDeltaPreSize)
	if _, err := io.ReadFull(f, head); err != nil {
		return 0, 0, fmt.Errorf("core: delta %s: truncated header: %w", path, err)
	}
	if !IsSnapshotDelta(head) {
		return 0, 0, fmt.Errorf("core: delta %s: not a delta snapshot", path)
	}
	return binary.LittleEndian.Uint64(head[48:]), binary.LittleEndian.Uint64(head[snapHeaderSize:]), nil
}
