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
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"goalrec/internal/faultfs"
)

// The zero-copy snapshot format (see DESIGN.md, "Snapshot format & WAL"): a
// 64-byte little-endian header, a CRC-guarded section table, and one
// 64-byte-aligned section per index array. Every CSR section — implementation
// rows, A-GI-idx, G-GI-idx and GA-idx — is a fixed-width little-endian
// array, so OpenSnapshotVerified serves them as unsafe.Slice views straight
// over the mapping: no section is decoded or rebuilt at open.
//
// A snapshot persists every stored index, not just the implementation CSR.
// Version 2 stores a goal's GA-idx row only when its implementations share an
// action (see Library); version 1 stored every row. The layout is otherwise
// the same, and both open through the same code: a version-1 image is one
// whose every row is stored, which is still a true row.
// Section ids of retired indexes (the AG-idx, the per-goal walk costs, the
// block-max and compressed-posting sections) stay reserved: an image that
// carries them opens, and their bytes are never read.
// Scalar derivations (maxImplLen, epoch) live in the header so opening never
// scans a section.
//
// OpenSnapshotVerified is the only way a snapshot file is mapped: it reads
// the header, the source key and stamp and the whole-file checksum (or, for
// an image without one, walks it structurally) through the descriptor it
// then maps, so no kernel ever indexes into bytes nobody checked.

const (
	snapshotMagic   = uint32(0x504e5347) // "GSNP" when read little-endian
	snapshotVersion = uint32(2)

	// snapshotMinVersion is the oldest version that opens: version 1, which
	// stored every GA-idx row.
	snapshotMinVersion = uint32(1)

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
	// magic | u32 crc32(everything before the footer). OpenSnapshotVerified
	// and the scrubber stream it to detect silent at-rest corruption anywhere
	// in the file, which the header CRC (header + section table only) cannot
	// see. An image without one is walked structurally instead
	// (VerifySnapshot).
	snapFooterMagic = uint32(0x4d555347)
	snapFooterSize  = 8

	// snapHeadMax is the longest header + section table: what a reader needs
	// of a file, together with its size, to know where every section and the
	// footer lie.
	snapHeadMax = snapHeaderSize + snapSectSize*snapMaxSections

	// snapMaxSourceKey bounds the optional source-key section.
	snapMaxSourceKey = 256

	// snapVerifyBuf is the fixed buffer VerifySnapshotChecksum streams a
	// file through, whatever the file's size: at least snapHeadMax, and
	// small beside the image, since it is a verified open's whole heap. A
	// 1 MiB buffer streamed the bench image no faster.
	snapVerifyBuf = 64 << 10
)

// Header flag bits.
const (
	snapFlagCompressed = 1 << 0 // retired block-compressed A-GI postings; refused on open
	snapFlagVocab      = 1 << 1 // vocabulary sections present
	snapFlagLenSorted  = 1 << 2 // reserved: retired size-sorted layout; never written, ignored on read
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
	secAgOff                 // reserved: retired AG-idx offsets
	secAgGoal                // reserved: retired AG-idx goals
	secAgCnt                 // reserved: retired AG-idx counts
	secGaOff                 // int32 × nGoal+1
	secGaAct                 // int32 × nGA
	secGaCnt                 // int32 × nGA
	secGoalSlots             // reserved: retired per-goal walk costs
	secBlkOff                // reserved: retired block-max offsets
	secBlkLast               // reserved: retired block-max last ids
	secBlkMinLen             // reserved: retired block-max min |A_p|
	secBlkMaxLen             // reserved: retired block-max max |A_p|
	secPostOff               // reserved: retired compressed-posting offsets
	secPostBlob              // reserved: retired compressed-posting blob
	secVocActOff             // uint64 × nActNames+1
	secVocActStr             // byte × action-name blob
	secVocGoalOff            // uint64 × nGoalNames+1
	secVocGoalStr            // byte × goal-name blob
	secSourceKey             // byte × key len (optional; see SnapshotOptions.SourceKey)
	secSrcStamp              // byte × fileStampSize (optional; see SnapshotOptions.SourceStamp)
	secVocActTab             // int32 × tableSize(nActNames) (optional; see buildNameTable)
	secVocGoalTab            // int32 × tableSize(nGoalNames) (optional)
	secVocSum                // uint64 × 3: nActions, nGoals, Vocabulary.Checksum of them (optional)
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

// u64Bytes returns the little-endian encoding of s: a view of s on
// little-endian hosts, an encoded copy elsewhere.
func u64Bytes(s []uint64) []byte {
	if len(s) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 8*len(s))
	}
	out := make([]byte, 0, 8*len(s))
	for _, v := range s {
		out = binary.LittleEndian.AppendUint64(out, v)
	}
	return out
}

// SnapshotOptions configures WriteSnapshot.
type SnapshotOptions struct {
	// SourceKey, when non-empty, is stored verbatim in an optional byte
	// section: an opaque label of what the snapshot was derived from, which
	// OpenSnapshotVerified hands to its accept (at most snapMaxSourceKey
	// bytes). Readers that do not know the section ignore it.
	SourceKey []byte
	// SourceStamp, when not the zero stamp, is stored in a second optional
	// byte section: the metadata of the source at the time SourceKey was
	// computed from its bytes, handed to accept beside the key.
	SourceStamp FileStamp
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

func (sw *snapWriter) writeU64s(s []uint64) { sw.write(u64Bytes(s)) }

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

	// Derived flat offsets. ActionDegree/GoalActionCount/... resolve
	// overlays, so these are the offsets a flat rebuild would produce.
	actOff := make([]int32, nAct+1)
	for a := 0; a < nAct; a++ {
		actOff[a+1] = actOff[a] + int32(l.ActionDegree(ActionID(a)))
	}
	if int(actOff[nAct]) != nSlots {
		return nil, fmt.Errorf("core: inconsistent library: %d postings for %d slots", actOff[nAct], nSlots)
	}
	// Only the GA rows of goals whose implementations share an action are
	// written, whatever l stores: a version-1 base stores every row.
	goalOff := make([]int32, nGoal+1)
	gaOff := make([]int32, nGoal+1)
	for g := 0; g < nGoal; g++ {
		goalOff[g+1] = goalOff[g] + int32(len(l.ImplsOfGoal(GoalID(g))))
		gaOff[g+1] = gaOff[g]
		if _, cnts := l.StoredGoalRow(GoalID(g)); sharesAction(cnts) {
			gaOff[g+1] += int32(len(cnts))
		}
	}
	nGA := uint64(gaOff[nGoal])
	// gaRow is the row written for g: its stored row when gaOff keeps one.
	gaRow := func(g int) ([]ActionID, []int32) {
		if gaOff[g+1] == gaOff[g] {
			return nil, nil
		}
		return l.StoredGoalRow(GoalID(g))
	}
	if int(goalOff[nGoal]) != nImpl {
		return nil, fmt.Errorf("core: inconsistent library: %d goal postings for %d implementations", goalOff[nGoal], nImpl)
	}

	flags := uint32(0)
	var act, goal nameSeg
	var vocabSum []uint64
	if vocab != nil {
		flags |= snapFlagVocab
		var err error
		if act, err = vocab.Actions.seal(); err != nil {
			return nil, fmt.Errorf("core: action vocabulary: %w", err)
		}
		if goal, err = vocab.Goals.seal(); err != nil {
			return nil, fmt.Errorf("core: goal vocabulary: %w", err)
		}
		// The checksum of the id spaces' names, hashed from the sections
		// about to be written. A vocabulary short of the id spaces gets
		// none: it does not open.
		if nAct < len(act.off) && nGoal < len(goal.off) {
			var c vocabCRC
			c.addPacked(act.off, act.blob, nAct)
			c.addPacked(goal.off, goal.blob, nGoal)
			vocabSum = []uint64{uint64(nAct), uint64(nGoal), c.sum()}
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
				base, tail := l.ActionRows(ActionID(a))
				writeI32Slice(sw, base)
				writeI32Slice(sw, tail)
			}
		}},
	}
	if vocabSum != nil {
		// First, into the page the header and section table share, so
		// reading it pages in nothing more.
		secs = slices.Insert(secs, 0, snapSection{id: secVocSum, elem: 8, count: 3, emit: func(sw *snapWriter) { sw.writeU64s(vocabSum) }})
	}
	secs = append(secs,
		snapSection{id: secGoalOff, elem: 4, count: uint64(nGoal + 1), emit: func(sw *snapWriter) { sw.writeI32s(goalOff) }},
		snapSection{id: secGoalPost, elem: 4, count: uint64(nImpl), emit: func(sw *snapWriter) {
			for g := 0; g < nGoal && sw.err == nil; g++ {
				writeI32Slice(sw, l.ImplsOfGoal(GoalID(g)))
			}
		}},
		snapSection{id: secGaOff, elem: 4, count: uint64(nGoal + 1), emit: func(sw *snapWriter) { sw.writeI32s(gaOff) }},
		snapSection{id: secGaAct, elem: 4, count: nGA, emit: func(sw *snapWriter) {
			for g := 0; g < nGoal && sw.err == nil; g++ {
				acts, _ := gaRow(g)
				writeI32Slice(sw, acts)
			}
		}},
		snapSection{id: secGaCnt, elem: 4, count: nGA, emit: func(sw *snapWriter) {
			for g := 0; g < nGoal && sw.err == nil; g++ {
				_, cnts := gaRow(g)
				sw.writeI32s(cnts)
			}
		}},
	)
	if vocab != nil {
		secs = append(secs,
			snapSection{id: secVocActOff, elem: 8, count: uint64(len(act.off)), emit: func(sw *snapWriter) { sw.writeU64s(act.off) }},
			snapSection{id: secVocActStr, elem: 1, count: uint64(len(act.blob)), emit: func(sw *snapWriter) { sw.write(act.blob) }},
			snapSection{id: secVocGoalOff, elem: 8, count: uint64(len(goal.off)), emit: func(sw *snapWriter) { sw.writeU64s(goal.off) }},
			snapSection{id: secVocGoalStr, elem: 1, count: uint64(len(goal.blob)), emit: func(sw *snapWriter) { sw.write(goal.blob) }},
			snapSection{id: secVocActTab, elem: 4, count: uint64(len(act.tab)), emit: func(sw *snapWriter) { sw.writeI32s(act.tab) }},
			snapSection{id: secVocGoalTab, elem: 4, count: uint64(len(goal.tab)), emit: func(sw *snapWriter) { sw.writeI32s(goal.tab) }},
		)
	}
	if len(opts.SourceKey) > 0 {
		if len(opts.SourceKey) > snapMaxSourceKey {
			return nil, fmt.Errorf("core: source key of %d bytes exceeds %d", len(opts.SourceKey), snapMaxSourceKey)
		}
		key := opts.SourceKey
		secs = append(secs, snapSection{id: secSourceKey, elem: 1, count: uint64(len(key)), emit: func(sw *snapWriter) { sw.write(key) }})
	}
	if opts.SourceStamp != (FileStamp{}) {
		stamp := opts.SourceStamp.encode()
		secs = append(secs, snapSection{id: secSrcStamp, elem: 1, count: fileStampSize, emit: func(sw *snapWriter) { sw.write(stamp) }})
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
	return p.write(w)
}

// write lays the planned sections out and writes the image to w.
func (p *snapPlan) write(w io.Writer) error {
	secs := p.secs

	// Assign aligned offsets. end, the footer's offset, caps the write buffer.
	end := uint64(snapHeaderSize + snapSectSize*len(secs))
	for i := range secs {
		secs[i].off = alignUp(end)
		end = secs[i].off + secs[i].count*uint64(secs[i].elem)
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

	sw := &snapWriter{w: bufio.NewWriterSize(w, int(min(1<<16, end+snapFooterSize)))}
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
		ioCount.checksummed.Add(int64(n))
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
// whole-file checksum footer, streaming the file through a fixed buffer; a
// legacy image without a footer is opened with OpenSnapshotVerified, which
// walks it structurally (deep CSR invariants), and closed again. A nil
// return means every byte of the file is what the writer sealed; a
// verification failure comes back wrapping ErrCorruptSnapshot, a footerless
// image in the retired compressed encoding as ErrCompressedPostings, anything
// else is an I/O error. This is the scrubber's primitive — deliberately a
// fresh read, not a check of an already-open mapping, so it catches at-rest
// corruption the page cache would hide.
func ScrubSnapshotFile(fsys faultfs.FS, path string) error {
	fsys = faultfs.Or(fsys)
	f, err := openCounted(fsys, path)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	if err := VerifySnapshotChecksum(f, fi.Size()); err != ErrNoChecksum {
		return err
	}
	s, err := OpenSnapshotVerified(fsys, path, nil)
	if err != nil {
		return err
	}
	return s.Close()
}

// WriteSnapshotFile writes the snapshot to path atomically: a same-directory
// temp file is written, synced, renamed into place, and the directory is
// fsynced so the rename itself survives power loss.
func WriteSnapshotFile(path string, l *Library, vocab *Vocabulary, opts SnapshotOptions) (err error) {
	return WriteSnapshotFileFS(faultfs.OS, path, l, vocab, opts)
}

// WriteSnapshotFileFS is WriteSnapshotFile over an explicit filesystem
// (fault injection; see internal/faultfs).
func WriteSnapshotFileFS(fsys faultfs.FS, path string, l *Library, vocab *Vocabulary, opts SnapshotOptions) error {
	return sealFile(fsys, path, func(w io.Writer) error { return WriteSnapshot(w, l, vocab, opts) })
}

// sealFile is the one way a snapshot file lands at path: write emits the
// image into a same-directory temp file (.snap-*.tmp), which is synced,
// closed and renamed into place, and the directory is synced so the rename
// survives power loss. On any error the temp file is removed and path is
// untouched, except that a failed directory sync leaves the renamed file.
func sealFile(fsys faultfs.FS, path string, write func(w io.Writer) error) (err error) {
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
	if err = write(f); err != nil {
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
	// adviseWG tracks the asynchronous madvise pass OpenSnapshotVerified
	// launches; Close waits for it before unmapping so the hints never race
	// the unmap.
	adviseWG sync.WaitGroup
}

// Library returns the snapshot's library. Its index arrays alias the mapping
// until Close.
func (s *Snapshot) Library() *Library { return s.lib }

// Vocabulary returns the snapshot's vocabulary, or nil for an id-level
// snapshot. Its names are served from the mapping until Close; names interned
// into it afterwards live on the heap.
func (s *Snapshot) Vocabulary() *Vocabulary { return s.vocab }

// Close releases the mapping; on a nil or closed snapshot it does nothing.
// The snapshot's Library (and every library extended from it) and its
// Vocabulary must not be used afterwards.
func (s *Snapshot) Close() error {
	if s == nil || s.unmap == nil {
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
// by OpenSnapshotVerified and Close.
var mappedGenerations, mappedBytes atomic.Int64

// MappedSnapshots returns how many snapshot mappings the process holds open
// and their total size in bytes.
func MappedSnapshots() (generations, bytes int64) {
	return mappedGenerations.Load(), mappedBytes.Load()
}

// OpenSnapshotVerified maps the snapshot at path once it has verified, all on
// the one descriptor it opens, so a concurrent rename of path cannot split
// the checks across two files. In order: the header CRC and the section
// geometry; then, when accept is non-nil, the stored source key and stamp
// (the zero stamp when the image carries none), which accept must take — an
// image without a key section is refused, and after a refusal nothing more
// is read; then every byte against the whole-file checksum footer, through a
// fixed buffer; then the mapping, which must be as long as the file was.
// The library records the stamp of the descriptor it checksummed and mapped
// (StatStamp, when complete), which spares LinkSnapshotFileFS a second pass
// over the same unchanged file.
//
// An image without a footer opens only when accept is nil, and only if
// VerifySnapshot passes on its mapping. A header that does not parse, bytes
// that do not match their footer and a footerless image that fails its walk
// come back wrapping ErrCorruptSnapshot; accept's refusals as accept returned
// them; I/O errors bare; and a sound image in the retired compressed
// encoding wrapping ErrCompressedPostings, not ErrCorruptSnapshot.
func OpenSnapshotVerified(fsys faultfs.FS, path string, accept func(key []byte, stamp FileStamp) error) (*Snapshot, error) {
	sf, err := openSnapFile(fsys, path)
	if err != nil {
		return nil, err
	}
	defer sf.Close()
	if accept != nil {
		if err := sf.checkSource(accept); err != nil {
			return nil, err
		}
	}
	size := sf.fi.Size()
	err = VerifySnapshotChecksum(io.NewSectionReader(sf, 0, size), size)
	footerless := err == ErrNoChecksum && accept == nil
	if err != nil && !footerless {
		return nil, err
	}
	data, unmap, err := mmapFile(sf)
	if err != nil {
		return nil, err
	}
	if int64(len(data)) != size {
		unmap()
		return nil, fmt.Errorf("size changed from %d to %d bytes while opening", size, len(data))
	}
	s, err := OpenSnapshotBytes(data)
	if err == nil && footerless {
		err = VerifySnapshot(s)
	}
	if err != nil {
		unmap()
		err = fmt.Errorf("core: snapshot %s: %w", path, err)
		if footerless && !errors.Is(err, ErrCompressedPostings) && !errors.Is(err, ErrCorruptSnapshot) {
			err = fmt.Errorf("%w: %w", ErrCorruptSnapshot, err)
		}
		return nil, err
	}
	s.unmap = unmap
	s.lib.mapped = true
	if st, ok := StatStamp(sf.fi); ok && !footerless {
		s.lib.checked = st
	}
	if s.vocab != nil {
		s.vocab.Actions.baseMapped, s.vocab.Goals.baseMapped = true, true
	}
	mappedGenerations.Add(1)
	mappedBytes.Add(int64(len(data)))
	ioCount.mmaps.Add(1)
	ioCount.mapped.Add(int64(len(data)))
	s.adviseAsync()
	return s, nil
}

// snapFile is a snapshot file open for verification, with what its
// descriptor gave before any section was read: its fstat, and its header and
// section table, checked against the file's size.
type snapFile struct {
	countedFile
	fi    os.FileInfo
	head  []byte // the header and section table
	secs  map[uint32]snapSection
	flags uint32
}

// openSnapFile opens the snapshot at path and reads its header and section
// table. A header that does not parse comes back wrapping
// ErrCorruptSnapshot, an I/O error bare.
func openSnapFile(fsys faultfs.FS, path string) (*snapFile, error) {
	f, err := openCounted(fsys, path)
	if err != nil {
		return nil, err
	}
	sf := &snapFile{countedFile: f}
	if sf.fi, err = f.Stat(); err == nil {
		sf.head = make([]byte, min(sf.fi.Size(), snapHeadMax))
		_, err = f.ReadAt(sf.head, 0)
	}
	if err == nil {
		if sf.secs, sf.flags, err = snapshotSections(sf.head, uint64(sf.fi.Size())); err != nil {
			err = fmt.Errorf("%w: %w", ErrCorruptSnapshot, err)
		}
	}
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	sf.head = sf.head[:snapHeaderSize+snapSectSize*len(sf.secs)]
	return sf, nil
}

// checkSource reads the source key and stamp sf records, the zero stamp
// when it carries none, and returns what accept says of them; an image
// without a key section is refused.
func (sf *snapFile) checkSource(accept func(key []byte, stamp FileStamp) error) error {
	key, stamp, err := readSource(sf.secs, sf.readAt)
	if err != nil {
		return err
	}
	if key == nil {
		return errors.New("no source key")
	}
	if stamp == nil {
		stamp = &FileStamp{}
	}
	return accept(key, *stamp)
}

// readAt is sf.ReadAt in the form readSource reads through.
func (sf *snapFile) readAt(p []byte, off int64) error {
	_, err := sf.ReadAt(p, off)
	return err
}

// readSource reads the source key and stamp sections of an image with the
// sections secs through readAt: key is nil when the image carries no key
// section, stamp nil when it carries no stamp.
func readSource(secs map[uint32]snapSection, readAt func(p []byte, off int64) error) (key []byte, stamp *FileStamp, err error) {
	if ks, ok := secs[secSourceKey]; ok && ks.elem == 1 && ks.count <= snapMaxSourceKey {
		key = make([]byte, ks.count)
		if err := readAt(key, int64(ks.off)); err != nil {
			return nil, nil, err
		}
	}
	if ss, ok := secs[secSrcStamp]; ok && ss.elem == 1 && ss.count == fileStampSize {
		b := make([]byte, fileStampSize)
		if err := readAt(b, int64(ss.off)); err != nil {
			return nil, nil, err
		}
		st := decodeFileStamp(b)
		stamp = &st
	}
	return key, stamp, nil
}

// KeyIs is the accept of OpenSnapshotVerified that takes exactly the source
// key key.
func KeyIs(key []byte) func([]byte, FileStamp) error {
	return func(have []byte, _ FileStamp) error {
		if !bytes.Equal(have, key) {
			return fmt.Errorf("source key is %q", have)
		}
		return nil
	}
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
	if v := binary.LittleEndian.Uint32(data[4:]); v < snapshotMinVersion || v > snapshotVersion {
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
// library's arrays alias data; the caller owns data's lifetime
// (OpenSnapshotVerified wires it to the file mapping). It checks the header
// CRC and the section geometry only and trusts every other byte.
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

	if lib.goalOff[0] != 0 || uint64(lib.goalOff[nGoal]) != nImpl {
		return nil, fmt.Errorf("goal offsets span [%d, %d] over %d implementations", lib.goalOff[0], lib.goalOff[nGoal], nImpl)
	}

	snap := &Snapshot{lib: lib, data: data}
	if flags&snapFlagVocab != 0 {
		acts, err := openNames(secs, data, secVocActOff, secVocActStr, secVocActTab)
		if err != nil {
			return nil, fmt.Errorf("action vocabulary: %w", err)
		}
		goals, err := openNames(secs, data, secVocGoalOff, secVocGoalStr, secVocGoalTab)
		if err != nil {
			return nil, fmt.Errorf("goal vocabulary: %w", err)
		}
		if acts.Len() < int(nAct) || goals.Len() < int(nGoal) {
			return nil, fmt.Errorf("vocabulary (%d actions, %d goals) does not cover id space (%d, %d)",
				acts.Len(), goals.Len(), nAct, nGoal)
		}
		snap.vocab = &Vocabulary{Actions: acts, Goals: goals}
		if s, ok := secs[secVocSum]; ok {
			if s.elem != 8 || s.count != 3 {
				return nil, fmt.Errorf("%w: malformed vocabulary checksum section", ErrCorruptSnapshot)
			}
			w := u64View(data[s.off:s.off+24], 3)
			if w[0] > uint64(acts.Len()) || w[1] > uint64(goals.Len()) {
				return nil, fmt.Errorf("%w: vocabulary checksum over %d actions and %d goals of %d and %d",
					ErrCorruptSnapshot, w[0], w[1], acts.Len(), goals.Len())
			}
			snap.vocab.sealed = &sealedChecksum{nActions: int(w[0]), nGoals: int(w[1]), sum: w[2]}
		}
	}
	return snap, nil
}

// openNames opens one (offsets, blob) vocabulary section pair as an Interner
// serving the names from data itself, through the sealed name table tabID
// when the image carries one and a table built on the heap when it does not.
func openNames(secs map[uint32]snapSection, data []byte, offID, strID, tabID uint32) (*Interner, error) {
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
	var tab []int32
	if tabSec, ok := secs[tabID]; ok {
		if tabSec.elem != 4 || tabSec.count == 0 {
			return nil, fmt.Errorf("%w: malformed name table section %d", ErrCorruptSnapshot, tabID)
		}
		tab = i32View[int32](data[tabSec.off:tabSec.off+4*tabSec.count], int(tabSec.count))
	}
	return newFrozenInterner(off, data[strSec.off:strSec.off+strSec.count], tab)
}

// VerifySnapshot walks every section of an open snapshot and checks the deep
// CSR invariants — offsets from 0, never decreasing and ending within their
// section, checked before any row is sliced; strictly increasing sorted
// rows; ids in range — that every stored GA row holds its goal's
// multiplicities as the implementation rows give them and a goal storing none
// has action-disjoint implementations, that every vocabulary name is
// plausible, that each sealed name table is the one buildNameTable lays out
// for its names, and that a sealed vocabulary checksum is its names'. It is linear in the
// snapshot; OpenSnapshotVerified runs it on an image without a checksum
// footer.
func VerifySnapshot(s *Snapshot) error {
	if v := s.vocab; v != nil {
		for i, in := range []*Interner{v.Actions, v.Goals} {
			kind := [...]string{"action", "goal"}[i]
			if !in.baseSealed {
				continue // the open built its table, walking every name
			}
			want, err := buildNameTable(in.base.off, in.base.blob)
			if err != nil {
				return fmt.Errorf("core: %s vocabulary: %w", kind, err)
			}
			if !slices.Equal(in.base.tab, want) {
				return fmt.Errorf("core: %s vocabulary: the sealed name table is not its names' layout", kind)
			}
		}
		if sc := v.sealed; sc != nil {
			if got := v.computeChecksum(sc.nActions, sc.nGoals); got != sc.sum {
				return fmt.Errorf("core: the sealed vocabulary checksum %#x is not its names' %#x", sc.sum, got)
			}
		}
	}
	l := s.lib
	if len(l.tailGoal) != 0 {
		// Unreachable: an opened image is flat. The section walks below read
		// the base arrays directly.
		return fmt.Errorf("core: snapshot library carries a tail segment")
	}
	for _, o := range []struct {
		name string
		off  []int32
		n    int
	}{
		{"implementation", l.implOff, len(l.implActs)},
		{"posting", l.actOff, len(l.actPost)},
		{"goal", l.goalOff, len(l.goalPost)},
		{"GA", l.gaOff, len(l.gaAct)},
	} {
		if o.off[0] != 0 {
			return fmt.Errorf("core: %s offsets start at %d", o.name, o.off[0])
		}
		for i := 1; i < len(o.off); i++ {
			if o.off[i] < o.off[i-1] {
				return fmt.Errorf("core: %s offset %d decreases", o.name, i)
			}
		}
		if end := o.off[len(o.off)-1]; int(end) > o.n {
			return fmt.Errorf("core: %s offsets end at %d past %d entries", o.name, end, o.n)
		}
	}
	nImpl := l.NumImplementations()
	nAct, nGoal := l.numActions, l.numGoals
	for p := 0; p < nImpl; p++ {
		acts := l.implActs[l.implOff[p]:l.implOff[p+1]]
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
		row := l.actPost[l.actOff[a]:l.actOff[a+1]]
		for i, p := range row {
			if p < 0 || int(p) >= nImpl {
				return fmt.Errorf("core: action %d: posting %d out of range", a, p)
			}
			if i > 0 && row[i-1] >= p {
				return fmt.Errorf("core: action %d: posting row not strictly increasing", a)
			}
		}
	}
	// mark[a] follows action a through the goal at hand: a stored row sets
	// it to the goal and the row's count, each implementation containing a
	// takes one off; without a stored row the first implementation containing
	// a claims it for the goal, and a second one is a shared action.
	type gaMark struct{ goal, n int32 }
	mark := make([]gaMark, nAct)
	for a := range mark {
		mark[a].goal = -1
	}
	for g := 0; g < nGoal; g++ {
		acts, cnts := l.StoredGoalRow(GoalID(g))
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
			mark[a] = gaMark{int32(g), cnts[i]}
		}
		for _, p := range l.ImplsOfGoal(GoalID(g)) {
			if p < 0 || int(p) >= nImpl {
				return fmt.Errorf("core: goal %d: posting %d out of range", g, p)
			}
			if l.implGoal[p] != GoalID(g) {
				return fmt.Errorf("core: goal %d: posting %d fulfills goal %d", g, p, l.implGoal[p])
			}
			for _, a := range l.implActs[l.implOff[p]:l.implOff[p+1]] {
				switch m := &mark[a]; {
				case len(acts) == 0 && m.goal == int32(g):
					return fmt.Errorf("core: goal %d: implementations share action %d, and the goal stores no GA row", g, a)
				case len(acts) == 0:
					m.goal = int32(g)
				case m.goal != int32(g) || m.n == 0:
					return fmt.Errorf("core: goal %d: GA row counts action %d fewer times than its implementations", g, a)
				default:
					m.n--
				}
			}
		}
		for _, a := range acts {
			if mark[a].n != 0 {
				return fmt.Errorf("core: goal %d: GA row counts action %d more times than its implementations", g, a)
			}
		}
	}
	return nil
}
