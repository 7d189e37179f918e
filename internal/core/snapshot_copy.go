package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand/v2"
	"os"

	"goalrec/internal/faultfs"
)

// ErrCopyRefused marks a CopySnapshotFileFS that refused its source: the
// file is missing or unreadable, carries another source key, is not a sound
// image of the library being persisted, or does not match its own checksum.
// Nothing was written at the destination; the caller serialises the library
// instead. Errors on the destination side are returned without it.
var ErrCopyRefused = errors.New("core: snapshot copy refused")

// ErrLinkFailed marks a LinkSnapshotFileFS whose source verified but did not
// become the destination: the filesystem refused the hard link (another
// device, no hard links) or the source's name was replaced while it was
// linked. Nothing was left at the destination; the caller copies instead.
var ErrLinkFailed = errors.New("core: snapshot link failed")

// snapCopyBuf is the fixed buffer CopySnapshotFileFS streams a file through.
const snapCopyBuf = 1 << 20

func copyRefused(err error) error { return fmt.Errorf("%w: %w", ErrCopyRefused, err) }

// CopySnapshotFileFS persists l, the unextended image of the keyed snapshot
// file at src, to dst as WriteSnapshotFileFS would: same bytes, except that
// the header carries l's epoch — and a version-1 src, which stores every GA
// row, stays version 1, as any version that opens serves l alike. It copies
// src through read instead of serialising l, so the pages of a mapping l is
// served from are never touched.
//
// Before anything is written it checks, on one descriptor: the header CRC
// and the geometry against the file's size, the source-key section against
// key, the header's dimensions against l, and that the checksum footer
// follows the last section. It then streams the file through one fixed
// buffer into a temp file, restamping the header's epoch and CRC, and keeps
// two running CRC-32s: the source's must match its footer, and the copy's is
// sealed as the new footer. The temp file is renamed to dst only after the
// source verified (see sealFile). Every refusal wraps ErrCopyRefused.
func CopySnapshotFileFS(fsys faultfs.FS, dst, src string, key []byte, l *Library) error {
	fsys = faultfs.Or(fsys)
	in, err := openSnapFile(fsys, src)
	if err != nil {
		return copyRefused(err)
	}
	defer in.Close()
	end, err := checkCopySource(in, key, l)
	if err != nil {
		return copyRefused(err)
	}

	// The restamped header and table, in place of the source's.
	hdr := bytes.Clone(in.head)
	binary.LittleEndian.PutUint64(hdr[48:], l.epoch)
	crc := crc32.ChecksumIEEE(hdr[:60])
	binary.LittleEndian.PutUint32(hdr[60:], crc32.Update(crc, crc32.IEEETable, hdr[snapHeaderSize:]))

	return sealFile(fsys, dst, func(w io.Writer) error {
		buf := make([]byte, min(end, snapCopyBuf))
		var srcCRC, dstCRC uint32
		for pos := uint64(0); pos < end; {
			chunk := buf[:min(uint64(len(buf)), end-pos)]
			if _, err := io.ReadFull(in, chunk); err != nil {
				return copyRefused(err)
			}
			srcCRC = crc32.Update(srcCRC, crc32.IEEETable, chunk)
			ioCount.checksummed.Add(int64(len(chunk)))
			if pos == 0 {
				// The first chunk covers the header and table (end ≥ their
				// length): they must still be the bytes checked above.
				if !bytes.Equal(chunk[:len(hdr)], in.head) {
					return copyRefused(errors.New("header changed while copying"))
				}
				copy(chunk, hdr)
			}
			dstCRC = crc32.Update(dstCRC, crc32.IEEETable, chunk)
			if _, err := w.Write(chunk); err != nil {
				return err
			}
			pos += uint64(len(chunk))
		}
		var footer [snapFooterSize]byte
		if _, err := io.ReadFull(in, footer[:]); err != nil {
			return copyRefused(err)
		}
		ioCount.checksummed.Add(snapFooterSize)
		if binary.LittleEndian.Uint32(footer[0:]) != snapFooterMagic {
			return copyRefused(ErrNoChecksum)
		}
		if want := binary.LittleEndian.Uint32(footer[4:]); srcCRC != want {
			return copyRefused(fmt.Errorf("%w: checksum mismatch (%#x != %#x)", ErrCorruptSnapshot, srcCRC, want))
		}
		binary.LittleEndian.PutUint32(footer[4:], dstCRC)
		_, err := w.Write(footer[:])
		return err
	})
}

// checkCopySource verifies everything CopySnapshotFileFS can check before it
// streams sf: its header flags, its source key, that its header describes l,
// and that its sections end right before the footer. It returns the offset
// of the footer.
func checkCopySource(sf *snapFile, key []byte, l *Library) (end uint64, err error) {
	if sf.flags != snapFlagVocab {
		return 0, fmt.Errorf("header flags %#x, want vocabulary only", sf.flags)
	}
	if err := sf.checkSource(KeyIs(key)); err != nil {
		return 0, err
	}
	dims := [...]struct {
		name      string
		have, off uint64
	}{
		{"implementations", uint64(l.NumImplementations()), 16},
		{"actions", uint64(l.numActions), 24},
		{"goals", uint64(l.numGoals), 32},
		{"slots", uint64(l.NumPostings()), 40},
	}
	for _, d := range dims {
		if v := binary.LittleEndian.Uint64(sf.head[d.off:]); v != d.have {
			return 0, fmt.Errorf("file holds %d %s, the library %d", v, d.name, d.have)
		}
	}
	if v := binary.LittleEndian.Uint32(sf.head[56:]); v != uint32(l.maxImplLen) {
		return 0, fmt.Errorf("file's longest implementation is %d, the library's %d", v, l.maxImplLen)
	}
	for _, s := range sf.secs {
		end = max(end, s.off+s.count*uint64(s.elem))
	}
	if size := uint64(sf.fi.Size()); end+snapFooterSize != size {
		return 0, fmt.Errorf("checksum footer not right after the last section (%d + %d != %d bytes)", end, snapFooterSize, size)
	}
	return end, nil
}

// LinkSnapshotFileFS persists l, the unextended image of the keyed snapshot
// file at src, to dst as a hard link to src when src's header already
// carries l's epoch: src is then byte for byte the image WriteSnapshotFileFS
// would write of l (or, for a version-1 src, the image an older writer
// wrote of it), and no byte is written. It reports false and does
// nothing when the epochs differ; the caller copies src instead
// (CopySnapshotFileFS). When dst already is src's file it reports true and
// does nothing.
//
// Before it links it checks, on one descriptor, everything
// CopySnapshotFileFS checks (header CRC and geometry, source key,
// dimensions, footer placement) and the epoch, and scrubs the whole file
// against its checksum footer — unless l was mapped by OpenSnapshotVerified
// from this very file and the descriptor's complete stamp (size, times,
// inode, device) is still the one that open checksummed: that pass would
// read the same bytes again. src is then linked to a .snap-*.tmp name
// beside dst, which must open as the file just verified (os.SameFile), is
// synced, and renamed to dst; the directory is synced last. A refusal of the
// source wraps ErrCopyRefused, a link that could not be made ErrLinkFailed;
// errors on the destination side are returned bare.
//
// Sharing the file, and trusting an unchanged stamp, are sound because no
// snapshot file is ever written in place: every writer seals a temp file
// and renames it (sealFile), and a store's quarantine and pruning only
// rename or remove names.
func LinkSnapshotFileFS(fsys faultfs.FS, dst, src string, key []byte, l *Library) (bool, error) {
	fsys = faultfs.Or(fsys)
	in, err := openSnapFile(fsys, src)
	if err != nil {
		return false, copyRefused(err)
	}
	defer in.Close()
	if _, err := checkCopySource(in, key, l); err != nil {
		return false, copyRefused(err)
	}
	if binary.LittleEndian.Uint64(in.head[48:]) != l.epoch {
		return false, nil
	}
	if cur, err := fsys.Stat(dst); err == nil && os.SameFile(cur, in.fi) {
		return true, nil
	}
	if !l.checkedFrom(in.fi) {
		if err := VerifySnapshotChecksum(in, in.fi.Size()); err != nil {
			return false, copyRefused(err)
		}
	}
	if err := linkFile(fsys, dst, src, in.fi); err != nil {
		return false, err
	}
	return true, nil
}

// checkedFrom reports whether fi, by its complete stamp, is the file
// OpenSnapshotVerified checksummed and mapped l from, unchanged since.
func (l *Library) checkedFrom(fi os.FileInfo) bool {
	st, ok := StatStamp(fi)
	return ok && l.checked != (FileStamp{}) && st == l.checked
}

// linkFile makes dst a name of the file src names, which must still be the
// file fi describes, the way sealFile lands a written one: through a
// same-directory temp name (.snap-*.tmp), synced, renamed into place, and the
// directory synced. On any error the temp name is removed.
func linkFile(fsys faultfs.FS, dst, src string, fi os.FileInfo) (err error) {
	dir := filepathDir(dst)
	tmp := fmt.Sprintf("%s%c.snap-%d.tmp", dir, os.PathSeparator, rand.Uint64())
	if err := fsys.Link(src, tmp); err != nil {
		return fmt.Errorf("%w: %w", ErrLinkFailed, err)
	}
	defer func() {
		if err != nil {
			_ = fsys.Remove(tmp)
		}
	}()
	f, err := fsys.Open(tmp)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrLinkFailed, err)
	}
	if lfi, serr := f.Stat(); serr != nil || !os.SameFile(lfi, fi) {
		_ = f.Close()
		if serr == nil {
			serr = fmt.Errorf("%s was replaced while it was linked", src)
		}
		return fmt.Errorf("%w: %w", ErrLinkFailed, serr)
	}
	if err = f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = fsys.Rename(tmp, dst); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}
