package core

import (
	"encoding/binary"
	"fmt"
	"sort"
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
}

// DescribeSnapshot parses data's header and section table — validating the
// CRC and geometry exactly like OpenSnapshotBytes — and returns the layout
// without materializing a library. An image in the retired compressed
// encoding is refused with ErrCompressedPostings.
func DescribeSnapshot(data []byte) (*SnapshotDescription, error) {
	secs, flags, err := snapshotSections(data, uint64(len(data)))
	if err != nil {
		return nil, err
	}
	if flags&snapFlagCompressed != 0 {
		return nil, ErrCompressedPostings
	}
	d := &SnapshotDescription{
		Version:       binary.LittleEndian.Uint32(data[4:]),
		HasVocabulary: flags&snapFlagVocab != 0,

		Implementations: binary.LittleEndian.Uint64(data[16:]),
		Actions:         binary.LittleEndian.Uint64(data[24:]),
		Goals:           binary.LittleEndian.Uint64(data[32:]),
		Slots:           binary.LittleEndian.Uint64(data[40:]),
		Epoch:           binary.LittleEndian.Uint64(data[48:]),
		MaxImplLen:      binary.LittleEndian.Uint32(data[56:]),
		FileBytes:       uint64(len(data)),
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
	sort.Slice(d.Sections, func(i, j int) bool { return d.Sections[i].Offset < d.Sections[j].Offset })
	if ks, ok := secs[secSourceKey]; ok && ks.elem == 1 && ks.count <= snapMaxSourceKey {
		d.SourceKey = string(data[ks.off : ks.off+ks.count])
	}
	if ss, ok := secs[secSrcStamp]; ok && ss.elem == 1 && ss.count == fileStampSize {
		stamp := decodeFileStamp(data[ss.off:])
		d.SourceStamp = &stamp
	}
	return d, nil
}
