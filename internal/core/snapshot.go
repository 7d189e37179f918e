package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"unsafe"

	"goalrec/internal/faultfs"
)

// The zero-copy snapshot format (see DESIGN.md, "Snapshot format & WAL"): a
// 64-byte little-endian header, a CRC-guarded section table, and one
// 64-byte-aligned section per index array. Every CSR section — implementation
// rows, A-GI-idx, G-GI-idx, AG-idx, GA-idx, goal slots, and the block-max
// metadata — is a fixed-width little-endian array, so OpenSnapshot serves
// them as unsafe.Slice views straight over the mapping: cold start is header
// parsing plus page-in, independent of library size.
//
// A snapshot persists every derived index, not just the implementation CSR.
// Scalar derivations (maxImplLen, implLenSorted, epoch) live in the header so
// opening never scans a section.

const (
	snapshotMagic   = uint32(0x504e5347) // "GSNP" when read little-endian
	snapshotVersion = uint32(1)

	// snapAlign is the byte alignment of every section, generous enough for
	// any element type and cache-line friendly.
	snapAlign = 64

	// snapHeaderSize is the fixed header length; the section table follows.
	snapHeaderSize = 64
	snapSectSize   = 24 // bytes per section-table entry

	// snapMaxSections bounds the table a corrupt header can demand.
	snapMaxSections = 64

	// snapMaxName bounds one vocabulary name, mirroring the named codec.
	snapMaxName = 1 << 16

	// snapFooterMagic introduces the optional 8-byte whole-file checksum
	// footer ("GSUM" read little-endian) appended after the last section:
	// magic | u32 crc32(everything before the footer). OpenSnapshot never
	// reads it — opening stays O(header) — but the scrubber and
	// OpenSnapshotKeyed use it to detect silent at-rest corruption anywhere
	// in the file, which the header CRC (header + section table only) cannot
	// see.
	snapFooterMagic = uint32(0x4d555347)
	snapFooterSize  = 8

	// snapHeadMax is the longest header + section table: what a reader needs
	// of a file, together with its size, to know where every section and the
	// footer lie.
	snapHeadMax = snapHeaderSize + snapSectSize*snapMaxSections

	// snapMaxSourceKey bounds the optional source-key section.
	snapMaxSourceKey = 256

	// snapVerifyBuf is the fixed buffer VerifySnapshotChecksum streams a
	// file through, whatever the file's size.
	snapVerifyBuf = 1 << 20
)

// Header flag bits.
const (
	snapFlagCompressed = 1 << 0 // retired block-compressed A-GI postings; refused on open
	snapFlagVocab      = 1 << 1 // vocabulary sections present
	snapFlagLenSorted  = 1 << 2 // |A_p| non-decreasing in id
)

// ErrCompressedPostings is returned when opening a snapshot written with
// block-compressed A-GI postings, an encoding this package no longer reads.
// Rebuild such a snapshot from its source library.
var ErrCompressedPostings = errors.New("core: snapshot uses the retired block-compressed posting encoding")

// Section identifiers. Element widths are fixed per section.
const (
	secImplGoal   = 1 + iota // int32 × nImpl
	secImplOff               // int32 × nImpl+1
	secImplActs              // int32 × nSlots
	secActOff                // int32 × nAct+1
	secActPost               // int32 × nSlots
	secGoalOff               // int32 × nGoal+1
	secGoalPost              // int32 × nImpl
	secAgOff                 // int32 × nAct+1
	secAgGoal                // int32 × nAG
	secAgCnt                 // int32 × nAG
	secGaOff                 // int32 × nGoal+1
	secGaAct                 // int32 × nGA
	secGaCnt                 // int32 × nGA
	secGoalSlots             // int32 × nGoal
	secBlkOff                // int32 × nAct+1
	secBlkLast               // int32 × nBlk
	secBlkMinLen             // int32 × nBlk
	secBlkMaxLen             // int32 × nBlk
	secPostOff               // reserved: retired compressed-posting offsets
	secPostBlob              // reserved: retired compressed-posting blob
	secVocActOff             // uint64 × nActNames+1
	secVocActStr             // byte × action-name blob
	secVocGoalOff            // uint64 × nGoalNames+1
	secVocGoalStr            // byte × goal-name blob
	secSourceKey             // byte × key len (optional; see SnapshotOptions.SourceKey)
)

// hostLittleEndian reports the byte order of this process; on the (rare)
// big-endian host the zero-copy views degrade to decoded copies.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// i32View reinterprets b as n little-endian 32-bit values. On little-endian
// hosts this is a zero-copy cast (b must be 4-byte aligned); otherwise the
// values are decoded into a fresh slice.
func i32View[T ~int32](b []byte, n int) []T {
	if n == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]T, n)
	for i := range out {
		out[i] = T(int32(binary.LittleEndian.Uint32(b[4*i:])))
	}
	return out
}

// u64View is i32View's 64-bit counterpart.
func u64View(b []byte, n int) []uint64 {
	if n == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return out
}

// i32Bytes is the write-side inverse of i32View on little-endian hosts.
func i32Bytes[T ~int32](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 4*len(s))
}

// SnapshotOptions configures WriteSnapshot.
type SnapshotOptions struct {
	// SourceKey, when non-empty, is stored verbatim in an optional byte
	// section: an opaque label of what the snapshot was derived from, which
	// OpenSnapshotKeyed demands back (at most snapMaxSourceKey bytes). Readers
	// that do not know the section ignore it.
	SourceKey []byte
}

// snapWriter tracks the byte offset of a buffered stream and pads sections
// to the format alignment.
type snapWriter struct {
	w   *bufio.Writer
	off uint64
	crc uint32 // running crc32 of every byte written, for the footer
	err error
}

func (sw *snapWriter) write(b []byte) {
	if sw.err != nil {
		return
	}
	n, err := sw.w.Write(b)
	sw.crc = crc32.Update(sw.crc, crc32.IEEETable, b[:n])
	sw.off += uint64(n)
	sw.err = err
}

func (sw *snapWriter) writeI32s(s []int32) { writeI32Slice(sw, s) }

func writeI32Slice[T ~int32](sw *snapWriter, s []T) {
	if hostLittleEndian {
		sw.write(i32Bytes(s))
		return
	}
	var buf [4]byte
	for _, v := range s {
		binary.LittleEndian.PutUint32(buf[:], uint32(int32(v)))
		sw.write(buf[:])
	}
}

func (sw *snapWriter) writeU64s(s []uint64) {
	if hostLittleEndian && len(s) > 0 {
		sw.write(unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 8*len(s)))
		return
	}
	var buf [8]byte
	for _, v := range s {
		binary.LittleEndian.PutUint64(buf[:], v)
		sw.write(buf[:])
	}
}

// padTo advances the stream to absolute offset target with zero bytes.
func (sw *snapWriter) padTo(target uint64) {
	var zeros [snapAlign]byte
	for sw.err == nil && sw.off < target {
		n := target - sw.off
		if n > snapAlign {
			n = snapAlign
		}
		sw.write(zeros[:n])
	}
}

func alignUp(off uint64) uint64 {
	return (off + snapAlign - 1) &^ uint64(snapAlign-1)
}

// snapSection is one planned section: identity, geometry and a payload
// writer. Offsets are assigned by the planner before anything is emitted.
type snapSection struct {
	id    uint32
	elem  uint32
	count uint64
	off   uint64
	emit  func(sw *snapWriter)
}

// snapPlan is one snapshot's section plan: the ordered sections plus the
// header dimensions.
type snapPlan struct {
	secs       []snapSection
	flags      uint32
	nImpl      int
	nAct       int
	nGoal      int
	nSlots     int
	epoch      uint64
	maxImplLen int
}

// headerBytes renders the fixed 64-byte header, leaving the trailing CRC
// field zero for the caller to stamp.
func (p *snapPlan) headerBytes() []byte {
	hdr := make([]byte, snapHeaderSize)
	binary.LittleEndian.PutUint32(hdr[0:], snapshotMagic)
	binary.LittleEndian.PutUint32(hdr[4:], snapshotVersion)
	binary.LittleEndian.PutUint32(hdr[8:], p.flags)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(p.secs)))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(p.nImpl))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(p.nAct))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(p.nGoal))
	binary.LittleEndian.PutUint64(hdr[40:], uint64(p.nSlots))
	binary.LittleEndian.PutUint64(hdr[48:], p.epoch)
	binary.LittleEndian.PutUint32(hdr[56:], uint32(p.maxImplLen))
	return hdr
}

// planSnapshot derives the flat section plan of l (and optionally its
// vocabulary). Every index row is read through the accessor surface, so
// flat, extended (overlay) and snapshot-loaded libraries all plan the same
// canonical flat layout — which is also what lets WAL compaction rewrite a
// live mmap-backed library without flattening it in memory first.
func planSnapshot(l *Library, vocab *Vocabulary, opts SnapshotOptions) (*snapPlan, error) {
	nImpl := l.NumImplementations()
	nAct, nGoal := l.numActions, l.numGoals
	nSlots := l.NumPostings()

	// Derived flat offsets. ActionDegree/GoalDegree/... resolve overlays, so
	// these are the offsets a flat rebuild would produce.
	actOff := make([]int32, nAct+1)
	blkOff := make([]int32, nAct+1)
	nAG := uint64(0)
	for a := 0; a < nAct; a++ {
		d := l.ActionDegree(ActionID(a))
		actOff[a+1] = actOff[a] + int32(d)
		blkOff[a+1] = blkOff[a] + int32((d+PostingBlockEntries-1)/PostingBlockEntries)
		nAG += uint64(l.GoalDegree(ActionID(a)))
	}
	if int(actOff[nAct]) != nSlots {
		return nil, fmt.Errorf("core: inconsistent library: %d postings for %d slots", actOff[nAct], nSlots)
	}
	nBlk := uint64(blkOff[nAct])
	goalOff := make([]int32, nGoal+1)
	gaOff := make([]int32, nGoal+1)
	goalSlots := make([]int32, nGoal)
	nGA := uint64(0)
	for g := 0; g < nGoal; g++ {
		goalOff[g+1] = goalOff[g] + int32(len(l.ImplsOfGoal(GoalID(g))))
		gaOff[g+1] = gaOff[g] + int32(l.GoalActionCount(GoalID(g)))
		goalSlots[g] = int32(l.GoalWalkCost(GoalID(g)))
		nGA += uint64(l.GoalActionCount(GoalID(g)))
	}
	if int(goalOff[nGoal]) != nImpl {
		return nil, fmt.Errorf("core: inconsistent library: %d goal postings for %d implementations", goalOff[nGoal], nImpl)
	}

	flags := uint32(0)
	if l.implLenSorted {
		flags |= snapFlagLenSorted
	}

	var actNameOff, goalNameOff []uint64
	var actNameBlob, goalNameBlob []byte
	if vocab != nil {
		flags |= snapFlagVocab
		actNameOff, actNameBlob = vocab.Actions.pack()
		goalNameOff, goalNameBlob = vocab.Goals.pack()
	}

	// emitBlocks streams one of the three block-metadata arrays, derived per
	// row so overlay rows serialize their own merged metadata.
	emitBlocks := func(pick func(PostingBlocks) []int32, fromLast bool) func(sw *snapWriter) {
		return func(sw *snapWriter) {
			var scratchLast []ImplID
			var scratchMin, scratchMax []int32
			for a := 0; a < nAct && sw.err == nil; a++ {
				blk := l.ActionPostingBlocks(ActionID(a))
				want := int(blkOff[a+1] - blkOff[a])
				if blk.NumBlocks() != want {
					// Hand-assembled libraries may lack block metadata;
					// derive it from the row.
					row := l.ImplsOfAction(ActionID(a))
					scratchLast, scratchMin, scratchMax = l.appendRowBlocks(row, scratchLast[:0], scratchMin[:0], scratchMax[:0])
					blk = PostingBlocks{Last: scratchLast, MinLen: scratchMin, MaxLen: scratchMax}
				}
				if fromLast {
					writeI32Slice(sw, blk.Last)
				} else {
					writeI32Slice(sw, pick(blk))
				}
			}
		}
	}

	secs := []snapSection{
		// The implementation CSR is written contiguous: base, then tail.
		{id: secImplGoal, elem: 4, count: uint64(nImpl), emit: func(sw *snapWriter) {
			writeI32Slice(sw, l.implGoal)
			writeI32Slice(sw, l.tailGoal)
		}},
		{id: secImplOff, elem: 4, count: uint64(nImpl + 1), emit: func(sw *snapWriter) {
			sw.writeI32s(l.implOff)
			sw.writeI32s(l.flatTailOff())
		}},
		{id: secImplActs, elem: 4, count: uint64(nSlots), emit: func(sw *snapWriter) {
			writeI32Slice(sw, l.implActs)
			writeI32Slice(sw, l.tailActs)
		}},
		{id: secActOff, elem: 4, count: uint64(nAct + 1), emit: func(sw *snapWriter) { sw.writeI32s(actOff) }},
		{id: secActPost, elem: 4, count: uint64(nSlots), emit: func(sw *snapWriter) {
			for a := 0; a < nAct && sw.err == nil; a++ {
				writeI32Slice(sw, l.ImplsOfAction(ActionID(a)))
			}
		}},
	}
	secs = append(secs,
		snapSection{id: secGoalOff, elem: 4, count: uint64(nGoal + 1), emit: func(sw *snapWriter) { sw.writeI32s(goalOff) }},
		snapSection{id: secGoalPost, elem: 4, count: uint64(nImpl), emit: func(sw *snapWriter) {
			for g := 0; g < nGoal && sw.err == nil; g++ {
				writeI32Slice(sw, l.ImplsOfGoal(GoalID(g)))
			}
		}},
		snapSection{id: secAgOff, elem: 4, count: uint64(nAct + 1), emit: func(sw *snapWriter) {
			off := int32(0)
			agOff := make([]int32, 1, nAct+1)
			for a := 0; a < nAct; a++ {
				off += int32(l.GoalDegree(ActionID(a)))
				agOff = append(agOff, off)
			}
			sw.writeI32s(agOff)
		}},
		snapSection{id: secAgGoal, elem: 4, count: nAG, emit: func(sw *snapWriter) {
			for a := 0; a < nAct && sw.err == nil; a++ {
				goals, _ := l.GoalsOfAction(ActionID(a))
				writeI32Slice(sw, goals)
			}
		}},
		snapSection{id: secAgCnt, elem: 4, count: nAG, emit: func(sw *snapWriter) {
			for a := 0; a < nAct && sw.err == nil; a++ {
				_, cnts := l.GoalsOfAction(ActionID(a))
				sw.writeI32s(cnts)
			}
		}},
		snapSection{id: secGaOff, elem: 4, count: uint64(nGoal + 1), emit: func(sw *snapWriter) { sw.writeI32s(gaOff) }},
		snapSection{id: secGaAct, elem: 4, count: nGA, emit: func(sw *snapWriter) {
			for g := 0; g < nGoal && sw.err == nil; g++ {
				acts, _ := l.ActionsOfGoal(GoalID(g))
				writeI32Slice(sw, acts)
			}
		}},
		snapSection{id: secGaCnt, elem: 4, count: nGA, emit: func(sw *snapWriter) {
			for g := 0; g < nGoal && sw.err == nil; g++ {
				_, cnts := l.ActionsOfGoal(GoalID(g))
				sw.writeI32s(cnts)
			}
		}},
		snapSection{id: secGoalSlots, elem: 4, count: uint64(nGoal), emit: func(sw *snapWriter) { sw.writeI32s(goalSlots) }},
		snapSection{id: secBlkOff, elem: 4, count: uint64(nAct + 1), emit: func(sw *snapWriter) { sw.writeI32s(blkOff) }},
		snapSection{id: secBlkLast, elem: 4, count: nBlk, emit: emitBlocks(nil, true)},
		snapSection{id: secBlkMinLen, elem: 4, count: nBlk, emit: emitBlocks(func(b PostingBlocks) []int32 { return b.MinLen }, false)},
		snapSection{id: secBlkMaxLen, elem: 4, count: nBlk, emit: emitBlocks(func(b PostingBlocks) []int32 { return b.MaxLen }, false)},
	)
	if vocab != nil {
		secs = append(secs,
			snapSection{id: secVocActOff, elem: 8, count: uint64(len(actNameOff)), emit: func(sw *snapWriter) { sw.writeU64s(actNameOff) }},
			snapSection{id: secVocActStr, elem: 1, count: uint64(len(actNameBlob)), emit: func(sw *snapWriter) { sw.write(actNameBlob) }},
			snapSection{id: secVocGoalOff, elem: 8, count: uint64(len(goalNameOff)), emit: func(sw *snapWriter) { sw.writeU64s(goalNameOff) }},
			snapSection{id: secVocGoalStr, elem: 1, count: uint64(len(goalNameBlob)), emit: func(sw *snapWriter) { sw.write(goalNameBlob) }},
		)
	}
	if len(opts.SourceKey) > 0 {
		if len(opts.SourceKey) > snapMaxSourceKey {
			return nil, fmt.Errorf("core: source key of %d bytes exceeds %d", len(opts.SourceKey), snapMaxSourceKey)
		}
		key := opts.SourceKey
		secs = append(secs, snapSection{id: secSourceKey, elem: 1, count: uint64(len(key)), emit: func(sw *snapWriter) { sw.write(key) }})
	}
	return &snapPlan{
		secs: secs, flags: flags,
		nImpl: nImpl, nAct: nAct, nGoal: nGoal, nSlots: nSlots,
		epoch: l.epoch, maxImplLen: int(l.maxImplLen),
	}, nil
}

// WriteSnapshot writes l (and optionally its vocabulary) to w in the
// zero-copy snapshot format.
func WriteSnapshot(w io.Writer, l *Library, vocab *Vocabulary, opts SnapshotOptions) error {
	p, err := planSnapshot(l, vocab, opts)
	if err != nil {
		return err
	}
	secs := p.secs

	// Assign aligned offsets.
	off := alignUp(uint64(snapHeaderSize + snapSectSize*len(secs)))
	for i := range secs {
		secs[i].off = off
		off = alignUp(off + secs[i].count*uint64(secs[i].elem))
	}

	// Header + table, CRC-stamped.
	hdr := p.headerBytes()
	table := make([]byte, snapSectSize*len(secs))
	for i, s := range secs {
		e := table[snapSectSize*i:]
		binary.LittleEndian.PutUint32(e[0:], s.id)
		binary.LittleEndian.PutUint32(e[4:], s.elem)
		binary.LittleEndian.PutUint64(e[8:], s.off)
		binary.LittleEndian.PutUint64(e[16:], s.count)
	}
	crc := crc32.ChecksumIEEE(hdr[:60])
	crc = crc32.Update(crc, crc32.IEEETable, table)
	binary.LittleEndian.PutUint32(hdr[60:], crc)

	sw := &snapWriter{w: bufio.NewWriterSize(w, 1<<16)}
	sw.write(hdr)
	sw.write(table)
	for i := range secs {
		sw.padTo(secs[i].off)
		secs[i].emit(sw)
		if want := secs[i].off + secs[i].count*uint64(secs[i].elem); sw.err == nil && sw.off != want {
			return fmt.Errorf("core: snapshot section %d wrote %d bytes, want %d", secs[i].id, sw.off-secs[i].off, want-secs[i].off)
		}
	}
	// Whole-file checksum footer: everything written so far, sealed.
	var footer [snapFooterSize]byte
	binary.LittleEndian.PutUint32(footer[0:], snapFooterMagic)
	binary.LittleEndian.PutUint32(footer[4:], sw.crc)
	sw.write(footer[:])
	if sw.err != nil {
		return fmt.Errorf("core: writing snapshot: %w", sw.err)
	}
	return sw.w.Flush()
}

// checksumEnd returns the offset of the whole-file checksum footer of a
// snapshot — the end of its last section — given the image's first bytes (at
// least min(size, snapHeadMax) of them) and its total size.
func checksumEnd(head []byte, size uint64) (uint64, error) {
	secs, _, err := snapshotSections(head, size)
	if err != nil {
		return 0, err
	}
	var end uint64
	for _, s := range secs {
		if e := s.off + s.count*uint64(s.elem); e > end {
			end = e
		}
	}
	return end, nil
}

// VerifySnapshotChecksum checks the whole-file checksum footer of the
// size-byte snapshot image r yields: every byte of the file, not just the
// header, must match the CRC the writer sealed it with. The image streams
// through one fixed buffer (snapVerifyBuf), so verifying costs the same heap
// whatever the file's size. It returns ErrNoChecksum for a (pre-footer) image
// without one — the caller then falls back to structural verification — an
// error wrapping ErrCorruptSnapshot when the bytes are not what was sealed,
// and r's own error, bare, when reading fails.
func VerifySnapshotChecksum(r io.Reader, size int64) error {
	return verifySnapshotChecksum(r, size, snapVerifyBuf)
}

// verifySnapshotChecksum is VerifySnapshotChecksum through a buffer of
// bufSize ≥ snapHeadMax bytes.
func verifySnapshotChecksum(r io.Reader, size, bufSize int64) error {
	buf := make([]byte, min(size, bufSize))
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	end, err := checksumEnd(buf, uint64(size))
	if err != nil {
		return fmt.Errorf("%w: %w", ErrCorruptSnapshot, err)
	}
	stop := end + snapFooterSize
	if stop > uint64(size) {
		return ErrNoChecksum
	}
	// buf holds the image's bytes [pos, pos+len(buf)): those below end feed
	// the CRC, those in [end, stop) are the footer, which may straddle reads.
	var (
		crc    uint32
		footer [snapFooterSize]byte
		pos    uint64
	)
	for {
		n := uint64(len(buf))
		if pos < end {
			crc = crc32.Update(crc, crc32.IEEETable, buf[:min(n, end-pos)])
		}
		if pos+n > end {
			from := max(pos, end)
			copy(footer[from-end:], buf[from-pos:min(n, stop-pos)])
		}
		if pos += n; pos >= stop {
			break
		}
		buf = buf[:min(uint64(cap(buf)), stop-pos)]
		if _, err := io.ReadFull(r, buf); err != nil {
			return err
		}
	}
	if binary.LittleEndian.Uint32(footer[0:]) != snapFooterMagic {
		return ErrNoChecksum
	}
	if want := binary.LittleEndian.Uint32(footer[4:]); crc != want {
		return fmt.Errorf("%w: checksum mismatch (%#x != %#x)", ErrCorruptSnapshot, crc, want)
	}
	return nil
}

// ErrNoChecksum reports a snapshot written before the whole-file checksum
// footer existed; its integrity can still be checked structurally with
// VerifySnapshot.
var ErrNoChecksum = fmt.Errorf("core: snapshot has no checksum footer")

// ErrCorruptSnapshot wraps every verification failure VerifySnapshotChecksum
// and ScrubSnapshotFile report — proof that the bytes at rest are not what
// the writer sealed. I/O errors reading the file are returned bare: they
// prove nothing about the data and must not trigger quarantine.
var ErrCorruptSnapshot = fmt.Errorf("core: snapshot corrupt")

// ScrubSnapshotFile re-reads the snapshot at path in full and verifies its
// whole-file checksum footer, streaming the file through a fixed buffer; only
// a legacy image without a footer is read whole, to be verified structurally
// instead (deep CSR invariants). A nil return means every byte of the file is
// what the writer sealed; a verification failure comes back wrapping
// ErrCorruptSnapshot, a footerless image in the retired compressed encoding
// as ErrCompressedPostings, anything else is an I/O error. This is the
// scrubber's primitive — deliberately a fresh read, not a check of an
// already-open mapping, so it catches at-rest corruption the page cache would
// hide.
func ScrubSnapshotFile(fsys faultfs.FS, path string) error {
	fsys = faultfs.Or(fsys)
	f, err := fsys.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	err = VerifySnapshotChecksum(f, fi.Size())
	if err == ErrNoChecksum {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return err
		}
		data, err := io.ReadAll(f)
		if err != nil {
			return err
		}
		s, err := OpenSnapshotBytes(data)
		if err == nil {
			err = VerifySnapshot(s)
		}
		if err != nil && !errors.Is(err, ErrCompressedPostings) {
			err = fmt.Errorf("%w: %w", ErrCorruptSnapshot, err)
		}
		return err
	}
	return err
}

// WriteSnapshotFile writes the snapshot to path atomically: a same-directory
// temp file is written, synced, renamed into place, and the directory is
// fsynced so the rename itself survives power loss.
func WriteSnapshotFile(path string, l *Library, vocab *Vocabulary, opts SnapshotOptions) (err error) {
	return WriteSnapshotFileFS(faultfs.OS, path, l, vocab, opts)
}

// WriteSnapshotFileFS is WriteSnapshotFile over an explicit filesystem
// (fault injection; see internal/faultfs).
func WriteSnapshotFileFS(fsys faultfs.FS, path string, l *Library, vocab *Vocabulary, opts SnapshotOptions) (err error) {
	dir := filepathDir(path)
	f, err := fsys.CreateTemp(dir, ".snap-*.tmp")
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
	if err = WriteSnapshot(f, l, vocab, opts); err != nil {
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

// filepathDir is filepath.Dir without importing path/filepath for one call.
func filepathDir(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if os.IsPathSeparator(path[i]) {
			if i == 0 {
				return path[:1]
			}
			return path[:i]
		}
	}
	return "."
}

// Snapshot is an open snapshot file: a Library (and optional Vocabulary)
// whose index arrays and names are zero-copy views over the underlying
// mapping. The mapping must outlive every use of the Library and of the
// Vocabulary — though not the names the Vocabulary has handed out, which are
// copies (see Interner); Close releases it.
type Snapshot struct {
	lib   *Library
	vocab *Vocabulary
	data  []byte // the full image (mapping or heap buffer)
	unmap func() error
	// adviseWG tracks the asynchronous madvise pass OpenSnapshot launches;
	// Close waits for it before unmapping so the hints never race the unmap.
	adviseWG sync.WaitGroup
}

// Library returns the snapshot's library. Its index arrays alias the mapping
// until Close.
func (s *Snapshot) Library() *Library { return s.lib }

// Vocabulary returns the snapshot's vocabulary, or nil for an id-level
// snapshot. Its names are served from the mapping until Close; names interned
// into it afterwards live on the heap.
func (s *Snapshot) Vocabulary() *Vocabulary { return s.vocab }

// Close releases the mapping. The snapshot's Library (and every library
// extended from it) and its Vocabulary must not be used afterwards.
func (s *Snapshot) Close() error {
	if s.unmap == nil {
		return nil
	}
	s.adviseWG.Wait()
	u := s.unmap
	s.unmap = nil
	mappedGenerations.Add(-1)
	mappedBytes.Add(-int64(len(s.data)))
	return u()
}

// Snapshot mappings this process holds: a count and their total size, kept
// by mapSnapshot and Close.
var mappedGenerations, mappedBytes atomic.Int64

// MappedSnapshots returns how many snapshot mappings the process holds open
// and their total size in bytes.
func MappedSnapshots() (generations, bytes int64) {
	return mappedGenerations.Load(), mappedBytes.Load()
}

// OpenSnapshot memory-maps the snapshot at path and returns zero-copy views
// over it. Opening validates the header CRC and the section geometry — O(#
// sections), not O(library) — so a snapshot of any size opens in page-in
// time. Deep content validation is available via VerifySnapshot.
func OpenSnapshot(path string) (*Snapshot, error) {
	return OpenSnapshotFS(faultfs.OS, path)
}

// OpenSnapshotFS is OpenSnapshot over an explicit filesystem (fault
// injection; see internal/faultfs). Reads served from the resulting mapping
// bypass the filesystem by construction; only the open itself is
// injectable.
func OpenSnapshotFS(fsys faultfs.FS, path string) (*Snapshot, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return mapSnapshot(f, path)
}

// mapSnapshot maps the open snapshot file f and builds the views over it.
func mapSnapshot(f faultfs.File, path string) (*Snapshot, error) {
	data, unmap, err := mmapFile(f)
	if err != nil {
		return nil, err
	}
	s, err := OpenSnapshotBytes(data)
	if err != nil {
		unmap()
		return nil, fmt.Errorf("core: snapshot %s: %w", path, err)
	}
	s.unmap = unmap
	s.lib.mapped = true
	if s.vocab != nil {
		s.vocab.Actions.baseMapped, s.vocab.Goals.baseMapped = true, true
	}
	mappedGenerations.Add(1)
	mappedBytes.Add(int64(len(data)))
	s.adviseAsync()
	return s, nil
}

// OpenSnapshotKeyed is OpenSnapshot for a snapshot that stands in for
// another file: it maps path only if the image carries exactly the source
// key (SnapshotOptions.SourceKey) and every byte of it matches the whole-file
// checksum it was sealed with. Key, checksum and mapping all come from the
// one descriptor opened here — the key and the checksum through read, with a
// fixed buffer, before anything is mapped — so a concurrent rename of path
// cannot split them across two files. Every refusal is an error naming the
// reason; the caller rebuilds the snapshot and never serves a refused one.
func OpenSnapshotKeyed(fsys faultfs.FS, path string, key []byte) (*Snapshot, error) {
	f, err := faultfs.Or(fsys).Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	head := make([]byte, min(size, snapHeadMax))
	if _, err := f.ReadAt(head, 0); err != nil {
		return nil, err
	}
	secs, _, err := snapshotSections(head, uint64(size))
	if err != nil {
		return nil, err
	}
	ks, ok := secs[secSourceKey]
	if !ok || ks.elem != 1 || ks.count > snapMaxSourceKey {
		return nil, errors.New("no source key")
	}
	have := make([]byte, ks.count)
	if _, err := f.ReadAt(have, int64(ks.off)); err != nil {
		return nil, err
	}
	if !bytes.Equal(have, key) {
		return nil, fmt.Errorf("source key is %q", have)
	}
	if err := VerifySnapshotChecksum(io.NewSectionReader(f, 0, size), size); err != nil {
		return nil, err
	}
	s, err := mapSnapshot(f, path)
	if err == nil && int64(len(s.data)) != size {
		_ = s.Close()
		return nil, fmt.Errorf("size changed from %d to %d bytes while opening", size, len(s.data))
	}
	return s, err
}

// snapshotSections parses and CRC-checks the header plus section table of a
// size-byte image, of which data holds the first bytes — all of them, or at
// least snapHeadMax.
func snapshotSections(data []byte, size uint64) (map[uint32]snapSection, uint32, error) {
	if len(data) < snapHeaderSize {
		return nil, 0, fmt.Errorf("truncated header (%d bytes)", len(data))
	}
	if m := binary.LittleEndian.Uint32(data[0:]); m != snapshotMagic {
		return nil, 0, fmt.Errorf("bad magic %#x", m)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != snapshotVersion {
		return nil, 0, fmt.Errorf("unsupported snapshot version %d", v)
	}
	flags := binary.LittleEndian.Uint32(data[8:])
	nSec := int(binary.LittleEndian.Uint32(data[12:]))
	if nSec <= 0 || nSec > snapMaxSections {
		return nil, 0, fmt.Errorf("implausible section count %d", nSec)
	}
	tableEnd := snapHeaderSize + snapSectSize*nSec
	if tableEnd > len(data) {
		return nil, 0, fmt.Errorf("truncated section table (%d sections, %d bytes)", nSec, len(data))
	}
	crc := crc32.ChecksumIEEE(data[:60])
	crc = crc32.Update(crc, crc32.IEEETable, data[snapHeaderSize:tableEnd])
	if want := binary.LittleEndian.Uint32(data[60:]); crc != want {
		return nil, 0, fmt.Errorf("header checksum mismatch (%#x != %#x)", crc, want)
	}
	secs := make(map[uint32]snapSection, nSec)
	for i := 0; i < nSec; i++ {
		e := data[snapHeaderSize+snapSectSize*i:]
		s := snapSection{
			id:    binary.LittleEndian.Uint32(e[0:]),
			elem:  binary.LittleEndian.Uint32(e[4:]),
			off:   binary.LittleEndian.Uint64(e[8:]),
			count: binary.LittleEndian.Uint64(e[16:]),
		}
		if s.elem != 1 && s.elem != 4 && s.elem != 8 {
			return nil, 0, fmt.Errorf("section %d: bad element size %d", s.id, s.elem)
		}
		if s.off%snapAlign != 0 {
			return nil, 0, fmt.Errorf("section %d: misaligned offset %d", s.id, s.off)
		}
		end := s.off + s.count*uint64(s.elem)
		if s.off < uint64(tableEnd) || end < s.off || end > size {
			return nil, 0, fmt.Errorf("section %d: range [%d, %d) outside file of %d bytes", s.id, s.off, end, size)
		}
		if _, dup := secs[s.id]; dup {
			return nil, 0, fmt.Errorf("duplicate section %d", s.id)
		}
		secs[s.id] = s
	}
	return secs, flags, nil
}

// OpenSnapshotBytes builds a Snapshot over an in-memory image. The returned
// library's arrays alias data; the caller owns data's lifetime (OpenSnapshot
// wires it to the file mapping).
func OpenSnapshotBytes(data []byte) (*Snapshot, error) {
	secs, flags, err := snapshotSections(data, uint64(len(data)))
	if err != nil {
		return nil, err
	}
	if flags&snapFlagCompressed != 0 {
		return nil, ErrCompressedPostings
	}
	nImpl := binary.LittleEndian.Uint64(data[16:])
	nAct := binary.LittleEndian.Uint64(data[24:])
	nGoal := binary.LittleEndian.Uint64(data[32:])
	nSlots := binary.LittleEndian.Uint64(data[40:])
	const maxDim = math.MaxInt32
	if nImpl > maxDim || nAct > maxDim || nGoal > maxDim || nSlots > maxDim {
		return nil, fmt.Errorf("implausible dimensions (impls=%d acts=%d goals=%d slots=%d)", nImpl, nAct, nGoal, nSlots)
	}

	sec := func(id uint32, elem uint32, count uint64) ([]byte, error) {
		s, ok := secs[id]
		if !ok {
			return nil, fmt.Errorf("missing section %d", id)
		}
		if s.elem != elem {
			return nil, fmt.Errorf("section %d: element size %d, want %d", id, s.elem, elem)
		}
		if s.count != count {
			return nil, fmt.Errorf("section %d: %d entries, want %d", id, s.count, count)
		}
		return data[s.off : s.off+s.count*uint64(s.elem)], nil
	}
	i32Sec := func(id uint32, count uint64) ([]int32, error) {
		b, err := sec(id, 4, count)
		if err != nil {
			return nil, err
		}
		return i32View[int32](b, int(count)), nil
	}

	lib := &Library{
		numActions: int(nAct),
		numGoals:   int(nGoal),
		epoch:      binary.LittleEndian.Uint64(data[48:]),
		maxImplLen: int32(binary.LittleEndian.Uint32(data[56:])),
	}
	lib.implLenSorted = flags&snapFlagLenSorted != 0

	var b []byte
	if b, err = sec(secImplGoal, 4, nImpl); err == nil {
		lib.implGoal = i32View[GoalID](b, int(nImpl))
		lib.implOff, err = i32Sec(secImplOff, nImpl+1)
	}
	if err == nil {
		if b, err = sec(secImplActs, 4, nSlots); err == nil {
			lib.implActs = i32View[ActionID](b, int(nSlots))
		}
	}
	if err == nil {
		lib.actOff, err = i32Sec(secActOff, nAct+1)
	}
	if err == nil {
		if b, err = sec(secGoalOff, 4, nGoal+1); err == nil {
			lib.goalOff = i32View[int32](b, int(nGoal+1))
		}
	}
	if err == nil {
		if b, err = sec(secGoalPost, 4, nImpl); err == nil {
			lib.goalPost = i32View[ImplID](b, int(nImpl))
		}
	}
	if err == nil {
		lib.agOff, err = i32Sec(secAgOff, nAct+1)
	}
	var nAG uint64
	if err == nil {
		nAG = secs[secAgGoal].count
		if b, err = sec(secAgGoal, 4, nAG); err == nil {
			lib.agGoal = i32View[GoalID](b, int(nAG))
			lib.agCnt, err = i32Sec(secAgCnt, nAG)
		}
	}
	if err == nil {
		lib.gaOff, err = i32Sec(secGaOff, nGoal+1)
	}
	var nGA uint64
	if err == nil {
		nGA = secs[secGaAct].count
		if b, err = sec(secGaAct, 4, nGA); err == nil {
			lib.gaAct = i32View[ActionID](b, int(nGA))
			lib.gaCnt, err = i32Sec(secGaCnt, nGA)
		}
	}
	if err == nil {
		lib.goalSlots, err = i32Sec(secGoalSlots, nGoal)
	}
	if err == nil {
		lib.blkOff, err = i32Sec(secBlkOff, nAct+1)
	}
	var nBlk uint64
	if err == nil {
		nBlk = secs[secBlkLast].count
		if b, err = sec(secBlkLast, 4, nBlk); err == nil {
			lib.blkLast = i32View[ImplID](b, int(nBlk))
			lib.blkMinLen, err = i32Sec(secBlkMinLen, nBlk)
		}
	}
	if err == nil {
		lib.blkMaxLen, err = i32Sec(secBlkMaxLen, nBlk)
	}
	if err == nil {
		if b, err = sec(secActPost, 4, nSlots); err == nil {
			lib.actPost = i32View[ImplID](b, int(nSlots))
		}
	}
	if err != nil {
		return nil, err
	}

	// O(1) CSR spot checks: the cheap invariants every accessor leans on.
	if nImpl > 0 || nSlots > 0 {
		if lib.implOff[0] != 0 || uint64(lib.implOff[nImpl]) != nSlots {
			return nil, fmt.Errorf("implementation offsets span [%d, %d] over %d slots", lib.implOff[0], lib.implOff[nImpl], nSlots)
		}
	}
	if lib.actOff[0] != 0 || uint64(lib.actOff[nAct]) != nSlots {
		return nil, fmt.Errorf("posting offsets span [%d, %d] over %d slots", lib.actOff[0], lib.actOff[nAct], nSlots)
	}
	if lib.blkOff[0] != 0 || uint64(lib.blkOff[nAct]) != nBlk {
		return nil, fmt.Errorf("block offsets span [%d, %d] over %d blocks", lib.blkOff[0], lib.blkOff[nAct], nBlk)
	}
	if lib.goalOff[0] != 0 || uint64(lib.goalOff[nGoal]) != nImpl {
		return nil, fmt.Errorf("goal offsets span [%d, %d] over %d implementations", lib.goalOff[0], lib.goalOff[nGoal], nImpl)
	}

	snap := &Snapshot{lib: lib, data: data}
	if flags&snapFlagVocab != 0 {
		acts, err := openNames(secs, data, secVocActOff, secVocActStr)
		if err != nil {
			return nil, fmt.Errorf("action vocabulary: %w", err)
		}
		goals, err := openNames(secs, data, secVocGoalOff, secVocGoalStr)
		if err != nil {
			return nil, fmt.Errorf("goal vocabulary: %w", err)
		}
		if acts.Len() < int(nAct) || goals.Len() < int(nGoal) {
			return nil, fmt.Errorf("vocabulary (%d actions, %d goals) does not cover id space (%d, %d)",
				acts.Len(), goals.Len(), nAct, nGoal)
		}
		snap.vocab = &Vocabulary{Actions: acts, Goals: goals}
	}
	return snap, nil
}

// openNames opens one (offsets, blob) vocabulary section pair as an Interner
// serving the names from data itself.
func openNames(secs map[uint32]snapSection, data []byte, offID, strID uint32) (*Interner, error) {
	offSec, ok := secs[offID]
	if !ok {
		return nil, fmt.Errorf("missing section %d", offID)
	}
	strSec, ok := secs[strID]
	if !ok {
		return nil, fmt.Errorf("missing section %d", strID)
	}
	if offSec.elem != 8 || strSec.elem != 1 || offSec.count == 0 {
		return nil, fmt.Errorf("malformed vocabulary sections")
	}
	off := u64View(data[offSec.off:offSec.off+8*offSec.count], int(offSec.count))
	return newFrozenInterner(off, data[strSec.off:strSec.off+strSec.count], snapMaxName)
}

// VerifySnapshot walks every section of an open snapshot and checks the deep
// CSR invariants — monotone offsets, strictly increasing sorted rows, ids in
// range, block metadata consistent with the rows. It is linear in
// the snapshot and intended for tooling (goalrec-snap verify) and tests, not
// for the open path.
func VerifySnapshot(s *Snapshot) error {
	l := s.lib
	if len(l.tailGoal) != 0 {
		// Unreachable: an opened image is flat. The section walks below read
		// the base arrays directly.
		return fmt.Errorf("core: snapshot library carries a tail segment")
	}
	nImpl := l.NumImplementations()
	nAct, nGoal := l.numActions, l.numGoals
	for p := 0; p < nImpl; p++ {
		lo, hi := l.implOff[p], l.implOff[p+1]
		if hi < lo {
			return fmt.Errorf("core: implementation %d: negative extent", p)
		}
		acts := l.implActs[lo:hi]
		if len(acts) == 0 {
			return fmt.Errorf("core: implementation %d: empty activity", p)
		}
		for i, a := range acts {
			if a < 0 || int(a) >= nAct {
				return fmt.Errorf("core: implementation %d: action %d out of range", p, a)
			}
			if i > 0 && acts[i-1] >= a {
				return fmt.Errorf("core: implementation %d: action list not strictly increasing", p)
			}
		}
		if g := l.implGoal[p]; g < 0 || int(g) >= nGoal {
			return fmt.Errorf("core: implementation %d: goal %d out of range", p, g)
		}
	}
	for a := 0; a < nAct; a++ {
		if l.actOff[a+1] < l.actOff[a] {
			return fmt.Errorf("core: action %d: negative posting extent", a)
		}
		row := l.ImplsOfAction(ActionID(a))
		blk := l.ActionPostingBlocks(ActionID(a))
		if blk.NumBlocks() != (len(row)+PostingBlockEntries-1)/PostingBlockEntries {
			return fmt.Errorf("core: action %d: %d blocks for %d postings", a, blk.NumBlocks(), len(row))
		}
		for i, p := range row {
			if p < 0 || int(p) >= nImpl {
				return fmt.Errorf("core: action %d: posting %d out of range", a, p)
			}
			if i > 0 && row[i-1] >= p {
				return fmt.Errorf("core: action %d: posting row not strictly increasing", a)
			}
			if (i+1)%PostingBlockEntries == 0 || i == len(row)-1 {
				if blk.Last[i/PostingBlockEntries] != p {
					return fmt.Errorf("core: action %d: block %d last %d != row %d", a, i/PostingBlockEntries, blk.Last[i/PostingBlockEntries], p)
				}
			}
		}
	}
	for g := 0; g < nGoal; g++ {
		if l.goalOff[g+1] < l.goalOff[g] {
			return fmt.Errorf("core: goal %d: negative posting extent", g)
		}
		for _, p := range l.ImplsOfGoal(GoalID(g)) {
			if p < 0 || int(p) >= nImpl {
				return fmt.Errorf("core: goal %d: posting %d out of range", g, p)
			}
			if l.implGoal[p] != GoalID(g) {
				return fmt.Errorf("core: goal %d: posting %d fulfills goal %d", g, p, l.implGoal[p])
			}
		}
		acts, cnts := l.ActionsOfGoal(GoalID(g))
		for i, a := range acts {
			if a < 0 || int(a) >= nAct {
				return fmt.Errorf("core: goal %d: GA action %d out of range", g, a)
			}
			if i > 0 && acts[i-1] >= a {
				return fmt.Errorf("core: goal %d: GA row not strictly increasing", g)
			}
			if cnts[i] <= 0 {
				return fmt.Errorf("core: goal %d: non-positive GA count", g)
			}
		}
	}
	for a := 0; a < nAct; a++ {
		goals, cnts := l.GoalsOfAction(ActionID(a))
		for i, g := range goals {
			if g < 0 || int(g) >= nGoal {
				return fmt.Errorf("core: action %d: AG goal %d out of range", a, g)
			}
			if i > 0 && goals[i-1] >= g {
				return fmt.Errorf("core: action %d: AG row not strictly increasing", a)
			}
			if cnts[i] <= 0 {
				return fmt.Errorf("core: action %d: non-positive AG count", a)
			}
		}
	}
	return nil
}
