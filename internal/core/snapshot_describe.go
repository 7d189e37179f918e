package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"goalrec/internal/faultfs"
)

// SnapshotSectionInfo describes one section of a snapshot file for
// inspection tooling.
type SnapshotSectionInfo struct {
	ID       uint32
	Name     string
	ElemSize uint32
	Count    uint64
	Offset   uint64
	Bytes    uint64
}

// SnapshotDescription is the parsed header and section table of a snapshot,
// the cheap O(#sections) view a CLI can print without loading the library.
type SnapshotDescription struct {
	Version         uint32
	HasVocabulary   bool
	Implementations uint64
	Actions         uint64
	Goals           uint64
	Slots           uint64
	Epoch           uint64
	MaxImplLen      uint32
	FileBytes       uint64
	// SourceKey is the optional label of what the snapshot was derived from
	// (SnapshotOptions.SourceKey); empty when the image carries none.
	SourceKey string
	// SourceStamp is the source's metadata recorded beside SourceKey
	// (SnapshotOptions.SourceStamp); nil when the image carries none.
	SourceStamp *FileStamp
	Sections    []SnapshotSectionInfo
}

var snapSectionNames = map[uint32]string{
	secImplGoal:   "impl-goal",
	secImplOff:    "impl-offsets",
	secImplActs:   "impl-actions",
	secActOff:     "posting-offsets",
	secActPost:    "postings-raw",
	secGoalOff:    "goal-impl-offsets",
	secGoalPost:   "goal-impl-postings",
	secAgOff:      "reserved-ag-offsets",
	secAgGoal:     "reserved-ag-goals",
	secAgCnt:      "reserved-ag-counts",
	secGaOff:      "ga-offsets",
	secGaAct:      "ga-actions",
	secGaCnt:      "ga-counts",
	secGoalSlots:  "reserved-goal-slots",
	secBlkOff:     "reserved-block-offsets",
	secBlkLast:    "reserved-block-last",
	secBlkMinLen:  "reserved-block-minlen",
	secBlkMaxLen:  "reserved-block-maxlen",
	secVocActOff:  "vocab-action-offsets",
	secVocActStr:  "vocab-action-names",
	secVocGoalOff: "vocab-goal-offsets",
	secVocGoalStr: "vocab-goal-names",
	secSourceKey:  "source-key",
	secSrcStamp:   "source-stamp",
	secVocActTab:  "vocab-action-table",
	secVocGoalTab: "vocab-goal-table",
	secVocSum:     "vocab-checksum",
}

// DescribeSnapshot parses data's header and section table — validating the
// CRC and geometry exactly like OpenSnapshotBytes — and returns the layout
// without materializing a library. An image in the retired compressed
// encoding is refused with ErrCompressedPostings.
func DescribeSnapshot(data []byte) (*SnapshotDescription, error) {
	return describeSnapshot(data, uint64(len(data)), func(p []byte, off int64) error {
		copy(p, data[off:])
		return nil
	})
}

// DescribeSnapshotFile is DescribeSnapshot for the snapshot at path, read
// through one descriptor: the header and section table, then the source key
// and stamp, and no other byte. Like DescribeSnapshot it checks the header
// CRC only, not the whole-file checksum; a header that does not parse comes
// back wrapping ErrCorruptSnapshot, an I/O error bare.
func DescribeSnapshotFile(fsys faultfs.FS, path string) (*SnapshotDescription, error) {
	sf, err := openSnapFile(fsys, path)
	if err != nil {
		return nil, err
	}
	defer sf.Close()
	return describeSnapshot(sf.head, uint64(sf.fi.Size()), sf.readAt)
}

// describeSnapshot describes a size-byte image from its first bytes head (at
// least the header and section table), reading the source key and stamp
// through readAt.
func describeSnapshot(head []byte, size uint64, readAt func(p []byte, off int64) error) (*SnapshotDescription, error) {
	secs, flags, err := snapshotSections(head, size)
	if err != nil {
		return nil, err
	}
	if flags&snapFlagCompressed != 0 {
		return nil, ErrCompressedPostings
	}
	d := &SnapshotDescription{
		Version:       binary.LittleEndian.Uint32(head[4:]),
		HasVocabulary: flags&snapFlagVocab != 0,

		Implementations: binary.LittleEndian.Uint64(head[16:]),
		Actions:         binary.LittleEndian.Uint64(head[24:]),
		Goals:           binary.LittleEndian.Uint64(head[32:]),
		Slots:           binary.LittleEndian.Uint64(head[40:]),
		Epoch:           binary.LittleEndian.Uint64(head[48:]),
		MaxImplLen:      binary.LittleEndian.Uint32(head[56:]),
		FileBytes:       size,
	}
	for id, s := range secs {
		name := snapSectionNames[id]
		if name == "" {
			name = fmt.Sprintf("section-%d", id)
		}
		d.Sections = append(d.Sections, SnapshotSectionInfo{
			ID: id, Name: name, ElemSize: s.elem, Count: s.count,
			Offset: s.off, Bytes: s.count * uint64(s.elem),
		})
	}
	// In file order; an empty section shares its offset with the next one.
	slices.SortFunc(d.Sections, func(a, b SnapshotSectionInfo) int {
		return cmp.Or(cmp.Compare(a.Offset, b.Offset), cmp.Compare(a.Bytes, b.Bytes), cmp.Compare(a.ID, b.ID))
	})
	key, stamp, err := readSource(secs, readAt)
	if err != nil {
		return nil, err
	}
	d.SourceKey, d.SourceStamp = string(key), stamp
	return d, nil
}
