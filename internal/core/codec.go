package core

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// This file provides two persistence formats for goal-implementation
// libraries:
//
//   - a human-editable JSON-lines format, one implementation per line, with
//     string goal/action names resolved through a Vocabulary (read by
//     jsonl.go); and
//   - a compact little-endian binary format for the id-level library, used to
//     snapshot large synthetic libraries between benchmark runs.

// jsonImpl is the JSON-lines wire form of one implementation.
type jsonImpl struct {
	Goal    string   `json:"goal"`
	Actions []string `json:"actions"`
}

// WriteJSONLines writes every implementation of l to w, one JSON object per
// line, resolving names through vocab.
func WriteJSONLines(w io.Writer, l *Library, vocab *Vocabulary) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for p := 0; p < l.NumImplementations(); p++ {
		impl := jsonImpl{Goal: vocab.GoalName(l.Goal(ImplID(p)))}
		for _, a := range l.Actions(ImplID(p)) {
			impl.Actions = append(impl.Actions, vocab.ActionName(a))
		}
		if err := enc.Encode(&impl); err != nil {
			return fmt.Errorf("core: encoding implementation %d: %w", p, err)
		}
	}
	return bw.Flush()
}

// binaryMagic identifies the binary library snapshot format.
const binaryMagic = uint32(0x474c4942) // "GLIB"

const binaryVersion = uint32(1)

// WriteBinary writes the id-level library to w in the compact snapshot
// format. The implementation CSR goes out contiguous — base arrays, then the
// tail segment of an extended snapshot — so any library shape round-trips.
func WriteBinary(w io.Writer, l *Library) error {
	bw := bufio.NewWriter(w)
	hdr := []uint32{
		binaryMagic, binaryVersion,
		uint32(l.NumImplementations()), uint32(l.numActions), uint32(l.numGoals),
		uint32(l.NumPostings()),
	}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("core: writing header: %w", err)
		}
	}
	for _, part := range []struct {
		what       string
		base, tail any
	}{
		{"goals", l.implGoal, l.tailGoal},
		{"offsets", l.implOff, l.flatTailOff()},
		{"actions", l.implActs, l.tailActs},
	} {
		for _, seg := range []any{part.base, part.tail} {
			if err := binary.Write(bw, binary.LittleEndian, seg); err != nil {
				return fmt.Errorf("core: writing %s: %w", part.what, err)
			}
		}
	}
	return bw.Flush()
}

// ReadBinary reads a library snapshot written by WriteBinary and rebuilds
// its postings indexes (including the AG-idx, which is derived rather than
// serialized: rebuilding is linear in the snapshot size and keeps the wire
// format at version 1). The implementation CSR is validated in place —
// strictly increasing action lists, non-negative ids, consistent offsets —
// and indexed directly, instead of re-normalizing every implementation
// through a Builder, so loading is one linear pass.
func ReadBinary(r io.Reader) (*Library, error) {
	br := bufio.NewReader(r)
	var hdr [6]uint32
	for i := range hdr {
		if err := binary.Read(br, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("core: reading header: %w", err)
		}
	}
	if hdr[0] != binaryMagic {
		return nil, fmt.Errorf("core: bad magic %#x", hdr[0])
	}
	if hdr[1] != binaryVersion {
		return nil, fmt.Errorf("core: unsupported snapshot version %d", hdr[1])
	}
	nImpl, nSlots := int(hdr[2]), int(hdr[5])
	nAct, nGoal := int(hdr[3]), int(hdr[4])
	// Sanity bounds: reject sizes a corrupt header could use to force huge
	// allocations. maxSnapshotEntries is far above any real library (the
	// paper's full-scale foodmart has ~1.9M slots).
	const maxSnapshotEntries = 1 << 26
	if nImpl < 0 || nSlots < 0 || nImpl > maxSnapshotEntries || nSlots > maxSnapshotEntries {
		return nil, fmt.Errorf("core: implausible snapshot sizes (impls=%d, slots=%d)", nImpl, nSlots)
	}
	if nAct < 0 || nGoal < 0 || nAct > maxSnapshotEntries || nGoal > maxSnapshotEntries {
		return nil, fmt.Errorf("core: implausible snapshot dimensions (actions=%d, goals=%d)", nAct, nGoal)
	}
	if nSlots < nImpl {
		return nil, fmt.Errorf("core: corrupt snapshot: %d slots for %d implementations", nSlots, nImpl)
	}
	implGoal := make([]GoalID, nImpl)
	implOff := make([]int32, nImpl+1)
	implActs := make([]ActionID, nSlots)
	if err := binary.Read(br, binary.LittleEndian, implGoal); err != nil {
		return nil, fmt.Errorf("core: reading goals: %w", err)
	}
	if err := binary.Read(br, binary.LittleEndian, implOff); err != nil {
		return nil, fmt.Errorf("core: reading offsets: %w", err)
	}
	if err := binary.Read(br, binary.LittleEndian, implActs); err != nil {
		return nil, fmt.Errorf("core: reading actions: %w", err)
	}
	maxAction, maxGoal, err := checkImplCSR(implGoal, implOff, implActs)
	if err != nil {
		return nil, err
	}
	// The declared id spaces bound the index allocations below; ids past them
	// mean the header and body disagree. The declared spaces may legitimately
	// exceed the largest id present (trailing ids with no implementations), so
	// they — not the scanned maxima — become the library's dimensions.
	if int(maxAction) >= nAct || int(maxGoal) >= nGoal {
		return nil, fmt.Errorf("core: corrupt snapshot: id (action %d, goal %d) outside declared spaces (%d actions, %d goals)",
			maxAction, maxGoal, nAct, nGoal)
	}
	lib := &Library{
		implGoal:   implGoal,
		implOff:    implOff,
		implActs:   implActs,
		numActions: nAct,
		numGoals:   nGoal,
	}
	lib.buildIndexes()
	return lib, nil
}
