// Package core implements the association-based goal model of
// Papadimitriou, Velegrakis and Koutrika (EDBT 2018): actions, goals, goal
// implementations, and the index structures of Section 4 (A-ids, G-ids,
// GI-A-idx, GI-G-idx, A-GI-idx plus the reverse G-GI-idx) that make the goal
// space, action space and implementation space of a user activity cheap to
// form.
//
// All hot-path structures work on dense int32 identifiers; the Interner maps
// external string names to ids at the boundary. An Interner opened from a
// snapshot serves its names from the snapshot image itself and copies one
// out whenever it hands it to a caller, so names outlive the mapping while
// the vocabulary costs a start no allocation per name (see Interner).
package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sync"
	"unsafe"
)

// ActionID identifies an action (an item purchase, a course, a life action).
type ActionID int32

// GoalID identifies a goal (a recipe, a degree, a life goal).
type GoalID int32

// ImplID identifies one goal implementation, i.e. one (goal, action-set)
// pair in the library.
type ImplID int32

// NoAction, NoGoal and NoImpl are sentinel "absent" ids.
const (
	NoAction ActionID = -1
	NoGoal   GoalID   = -1
	NoImpl   ImplID   = -1
)

// Interner assigns dense int32 ids to string names and resolves them back.
// It implements the paper's A-ids / G-ids dictionaries. The zero value is
// ready to use. The Interner is safe for concurrent use: ids only ever grow,
// so readers of an older library snapshot keep resolving their epoch's names
// while an Engine interns new ones.
//
// An Interner comes in two shapes. Built by a parser or a Builder it is a
// map plus a name slice on the heap. Opened from a snapshot it has a frozen
// base: ids below baseLen are served straight from the snapshot's validated
// (offsets, blob) sections — views, not copies — through a pointer-free
// open-addressing table (see buildNameTable) that the image carries as a
// section of its own, so a start builds nothing per name, the garbage
// collector has nothing to scan, and base lookups take no lock. An image
// written before the table was sealed gets the same table built on the heap
// at open. Only names interned afterwards (engine ingest) go to the map and
// the slice, with ids continuing at baseLen.
//
// Name lifetime: the base lives as long as the snapshot image does — until
// Snapshot.Close unmaps it — but a name an Interner hands out must stay valid
// for as long as its holder keeps it (a ranking kept across Store.Close).
// Name and Names therefore copy base names out of the image; nothing the
// Interner returns aliases it.
type Interner struct {
	// Frozen base, set once by newFrozenInterner and immutable afterwards.
	baseOff    []uint64 // baseLen+1 cumulative offsets into baseBlob
	baseBlob   []byte
	baseTab    []int32 // buildNameTable's layout of the base names
	baseLen    int32
	baseSealed bool // baseTab is a view of the image, not built at open
	baseMapped bool // the base sections lie in a file mapping

	mu     sync.RWMutex
	byName map[string]int32 // names interned beyond the base
	names  []string         // names[i] has id baseLen+i
}

// NewInterner returns an empty Interner with capacity for n names.
func NewInterner(n int) *Interner {
	return &Interner{byName: make(map[string]int32, n), names: make([]string, 0, n)}
}

// newFrozenInterner returns an Interner whose first len(off)-1 ids are the
// names off delimits in blob, both of which it keeps views of, found through
// tab: the image's sealed name table, or, when tab is nil, one built here.
// With a sealed table it checks only what is O(1) — offsets that start at 0
// and end at len(blob), a count that fits an id, a table of tableSize(n)
// slots — and reads no other offset and no slot: baseName bounds every name
// and lookupBase every probe, and VerifySnapshot walks both. Building a table
// walks every offset and refuses an implausible name or one that occurs
// twice.
func newFrozenInterner(off []uint64, blob []byte, tab []int32) (*Interner, error) {
	if len(off) == 0 || off[0] != 0 || off[len(off)-1] != uint64(len(blob)) {
		return nil, fmt.Errorf("name offsets do not span the %d-byte blob", len(blob))
	}
	n := len(off) - 1
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("implausible name count %d", n)
	}
	in := &Interner{baseOff: off, baseBlob: blob, baseLen: int32(n), baseTab: tab, baseSealed: tab != nil}
	if tab == nil {
		var err error
		if in.baseTab, err = buildNameTable(off, blob); err != nil {
			return nil, err
		}
	} else if len(tab) != tableSize(n) {
		return nil, fmt.Errorf("%w: name table of %d slots for %d names, want %d", ErrCorruptSnapshot, len(tab), n, tableSize(n))
	}
	return in, nil
}

// tableSize is the slot count of the name table over n names: the smallest
// power of two, at least 8, that keeps the table at most two thirds full.
func tableSize(n int) int {
	size := 8
	for size < n+n/2 {
		size <<= 1
	}
	return size
}

// nameSlot is the first slot a name probes in a table of mask+1 slots: the
// CRC-32C of its bytes, the same in every process, so the sealer and every
// later open place and find a name alike.
func nameSlot(name []byte, mask uint32) uint32 {
	return crc32.Checksum(name, crc32.MakeTable(crc32.Castagnoli)) & mask
}

// buildNameTable lays out the names (off, blob) delimits in an
// open-addressing table of tableSize(n) slots: id+1 per occupied slot, 0 for
// an empty one, each name at nameSlot or the first free slot after it, ids
// placed in increasing order. The layout is a function of the names alone,
// so a table built at open equals the one a sealer wrote. It is the one walk
// over every name: a name whose offsets decrease, overrun the blob or span
// more than snapMaxName bytes is refused before it is read, and so is a name
// that occurs twice.
func buildNameTable(off []uint64, blob []byte) ([]int32, error) {
	n := len(off) - 1
	tab := make([]int32, tableSize(n))
	mask := uint32(len(tab) - 1)
	for id := 0; id < n; id++ {
		if !plausibleName(off[id], off[id+1], blob) {
			return nil, fmt.Errorf("implausible name %d: bytes [%d, %d)", id, off[id], off[id+1])
		}
		name := blob[off[id]:off[id+1]]
		i := nameSlot(name, mask)
		for ; tab[i] != 0; i = (i + 1) & mask {
			if other := tab[i] - 1; bytes.Equal(blob[off[other]:off[other+1]], name) {
				return nil, fmt.Errorf("duplicate name %q (ids %d and %d)", name, other, id)
			}
		}
		tab[i] = int32(id + 1)
	}
	return tab, nil
}

// plausibleName reports whether the offsets [lo, hi) delimit a name within
// blob no longer than snapMaxName.
func plausibleName(lo, hi uint64, blob []byte) bool {
	return lo <= hi && hi <= uint64(len(blob)) && hi-lo <= snapMaxName
}

// baseName returns the bytes of base name id, aliasing the snapshot image,
// or false when its offsets are not plausible. The offsets of a sealed base
// are not walked at open, so this bound is what keeps an image the checksum
// accepted but no sealer wrote from slicing out of bounds: such a name is
// never served.
func (in *Interner) baseName(id int32) ([]byte, bool) {
	lo, hi := in.baseOff[id], in.baseOff[id+1]
	if !plausibleName(lo, hi, in.baseBlob) {
		return nil, false
	}
	return in.baseBlob[lo:hi], true
}

// lookupBase probes the frozen base for name. It takes no lock: the base
// never changes. A slot outside [1, baseLen] or naming an implausible name
// never matches and the probe stops after len(baseTab) slots, so not even a
// sealed image the checksum accepted but that no sealer wrote can send it out
// of bounds or round the table forever.
func (in *Interner) lookupBase(name string) (int32, bool) {
	if in.baseLen == 0 {
		return 0, false
	}
	tab := in.baseTab
	mask := uint32(len(tab) - 1)
	i := nameSlot(unsafe.Slice(unsafe.StringData(name), len(name)), mask)
	for range tab {
		v := tab[i]
		if v == 0 {
			return 0, false
		}
		if v > 0 && v <= in.baseLen {
			if b, ok := in.baseName(v - 1); ok && string(b) == name {
				return v - 1, true
			}
		}
		i = (i + 1) & mask
	}
	return 0, false
}

// Intern returns the id for name, assigning the next dense id on first use.
func (in *Interner) Intern(name string) int32 {
	if id, ok := in.lookupBase(name); ok {
		return id
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.byName == nil {
		in.byName = make(map[string]int32)
	}
	if id, ok := in.byName[name]; ok {
		return id
	}
	id := in.baseLen + int32(len(in.names))
	in.byName[name] = id
	in.names = append(in.names, name)
	return id
}

// internUnshared is Intern for a NewInterner no other goroutine sees yet, a
// loader's: it takes no lock, and a name already interned costs no
// allocation, the lookup converting name without a copy.
func (in *Interner) internUnshared(name []byte) int32 {
	if id, ok := in.byName[string(name)]; ok {
		return id
	}
	id := int32(len(in.names))
	str := string(name)
	in.byName[str] = id
	in.names = append(in.names, str)
	return id
}

// Lookup returns the id for name without assigning one. The second result
// reports whether the name was present.
func (in *Interner) Lookup(name string) (int32, bool) {
	if id, ok := in.lookupBase(name); ok {
		return id, true
	}
	in.mu.RLock()
	defer in.mu.RUnlock()
	id, ok := in.byName[name]
	return id, ok
}

// Name returns the name for id, or "" if id is out of range or names an
// implausible base name (see baseName). The result is the caller's to keep: a
// base name is copied out of the snapshot image.
func (in *Interner) Name(id int32) string {
	if id < 0 {
		return ""
	}
	if id < in.baseLen {
		b, _ := in.baseName(id)
		return string(b)
	}
	in.mu.RLock()
	defer in.mu.RUnlock()
	if int(id-in.baseLen) >= len(in.names) {
		return ""
	}
	return in.names[id-in.baseLen]
}

// Len returns the number of interned names.
func (in *Interner) Len() int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return int(in.baseLen) + len(in.names)
}

// Names returns the interned names indexed by id. Without a frozen base the
// returned slice is a stable full-slice view of the Interner's backing store:
// later Interns never mutate it. With one, the list is assembled afresh, the
// base names copied as Name copies them. Either way it must not be modified
// by the caller.
func (in *Interner) Names() []string {
	in.mu.RLock()
	grown := in.names[:len(in.names):len(in.names)]
	in.mu.RUnlock()
	if in.baseLen == 0 {
		return grown
	}
	out := make([]string, 0, int(in.baseLen)+len(grown))
	for id := int32(0); id < in.baseLen; id++ {
		out = append(out, in.Name(id))
	}
	return append(out, grown...)
}

// pack flattens the dictionary into the snapshot's section form: cumulative
// byte offsets and the concatenated names. For a frozen base nothing has
// grown on, these are the base's own views.
func (in *Interner) pack() ([]uint64, []byte) {
	in.mu.RLock()
	grown := in.names[:len(in.names):len(in.names)]
	in.mu.RUnlock()
	if in.baseLen > 0 && len(grown) == 0 {
		return in.baseOff, in.baseBlob
	}
	size := len(in.baseBlob)
	for _, s := range grown {
		size += len(s)
	}
	off := make([]uint64, 1, int(in.baseLen)+len(grown)+1)
	blob := append(make([]byte, 0, size), in.baseBlob...)
	if in.baseLen > 0 {
		off = append(off, in.baseOff[1:]...)
	}
	for _, s := range grown {
		blob = append(blob, s...)
		off = append(off, uint64(len(blob)))
	}
	return off, blob
}

// seal returns the dictionary as a snapshot stores it: pack's sections and
// their name table. A frozen base nothing has grown on hands over its own
// table; otherwise the table is built, which refuses a duplicate name.
func (in *Interner) seal() ([]uint64, []byte, []int32, error) {
	off, blob := in.pack()
	if n := len(off) - 1; n > 0 && n == int(in.baseLen) {
		return off, blob, in.baseTab, nil
	}
	tab, err := buildNameTable(off, blob)
	return off, blob, tab, err
}

// vocabCRC is the pair of running CRCs behind Vocabulary.Checksum, each
// over every byte of the packed dictionaries: ieee with the IEEE polynomial,
// castagnoli with Castagnoli's. Two polynomials over the same bytes keep a
// false match near one in 2^64 mismatches, also between vocabularies whose
// counts and offsets agree.
type vocabCRC struct {
	ieee, castagnoli uint32
	count            [8]byte
}

// addPacked extends c by the first n names of a dictionary in the packed
// form pack returns and a snapshot stores: n, the little-endian offsets
// off[:n+1], then the bytes blob[:off[n]] — all of blob when off[n] lies past
// it, which only an image no sealer wrote can hold, so hashing never slices
// out of bounds. off must hold at least n+1 offsets.
func (c *vocabCRC) addPacked(off []uint64, blob []byte, n int) {
	binary.LittleEndian.PutUint64(c.count[:], uint64(n))
	c.update(c.count[:])
	c.update(u64Bytes(off[:n+1]))
	c.update(blob[:min(off[n], uint64(len(blob)))])
}

// add extends c by the first n names of in, hashing a frozen base nothing
// has grown on in place. in must hold at least n names.
func (c *vocabCRC) add(in *Interner, n int) {
	off, blob := in.pack()
	c.addPacked(off, blob, n)
}

func (c *vocabCRC) update(p []byte) {
	c.ieee = crc32.Update(c.ieee, crc32.IEEETable, p)
	// Built on the first call, not at the start of every process that links
	// this package: the hardware tables take ≈ 0.25 ms to fill.
	c.castagnoli = crc32.Update(c.castagnoli, crc32.MakeTable(crc32.Castagnoli), p)
}

func (c *vocabCRC) sum() uint64 { return uint64(c.ieee)<<32 | uint64(c.castagnoli) }

// Checksum fingerprints the first nActions action names and nGoals goal
// names in id order: the dictionaries' packed forms, actions then goals,
// hashed with CRC-32 (IEEE) into the high half and CRC-32C into the low
// half. Two vocabularies agree exactly when both id-space sizes and every
// name in id order agree (up to a 64-bit collision), wherever the names
// live. A vocabulary opened from an image that carries the sealed checksum
// for these counts answers with it and reads no name (see ChecksumSealed);
// any other computes it.
func (v *Vocabulary) Checksum(nActions, nGoals int) uint64 {
	if v.ChecksumSealed(nActions, nGoals) {
		return v.sealed.sum
	}
	return v.computeChecksum(nActions, nGoals)
}

// ChecksumSealed reports whether Checksum(nActions, nGoals) is the value the
// snapshot image sealed rather than one computed from the names: the image
// carries its vocabulary checksum over exactly these counts, and neither
// dictionary has grown since it was opened.
func (v *Vocabulary) ChecksumSealed(nActions, nGoals int) bool {
	s := v.sealed
	return s != nil && s.nActions == nActions && s.nGoals == nGoals &&
		v.Actions.Len() == int(v.Actions.baseLen) && v.Goals.Len() == int(v.Goals.baseLen)
}

func (v *Vocabulary) computeChecksum(nActions, nGoals int) uint64 {
	var c vocabCRC
	c.add(v.Actions, nActions)
	c.add(v.Goals, nGoals)
	return c.sum()
}

// sealedChecksum is a vocabulary checksum as an image stores it: the value
// of Checksum(nActions, nGoals) the sealer computed from the packed names.
type sealedChecksum struct {
	nActions, nGoals int
	sum              uint64
}

// InternerStats says where an Interner's names live.
type InternerStats struct {
	BaseNames  int   // served from a snapshot image
	GrownNames int   // interned since, on the heap
	TableBytes int64 // the base's lookup table
	Sealed     bool  // the table was read from the image, not built at open
	Mapped     bool  // the base lies in a file mapping
}

// Stats reports where in's names live.
func (in *Interner) Stats() InternerStats {
	return InternerStats{
		BaseNames:  int(in.baseLen),
		GrownNames: in.Len() - int(in.baseLen),
		TableBytes: 4 * int64(len(in.baseTab)),
		Sealed:     in.baseSealed,
		Mapped:     in.baseMapped,
	}
}

// Vocabulary pairs the action and goal dictionaries of a library built from
// named data.
type Vocabulary struct {
	Actions *Interner
	Goals   *Interner
	// sealed is the checksum the image the vocabulary was opened from
	// carries, nil for one built on the heap or opened from an image
	// without it.
	sealed *sealedChecksum
}

// NewVocabulary returns an empty Vocabulary.
func NewVocabulary() *Vocabulary {
	return &Vocabulary{Actions: NewInterner(0), Goals: NewInterner(0)}
}

// ActionName resolves an ActionID, falling back to a numeric form for ids
// outside the dictionary.
func (v *Vocabulary) ActionName(a ActionID) string {
	if v != nil && v.Actions != nil {
		if s := v.Actions.Name(int32(a)); s != "" {
			return s
		}
	}
	return fmt.Sprintf("action#%d", a)
}

// GoalName resolves a GoalID, falling back to a numeric form for ids outside
// the dictionary.
func (v *Vocabulary) GoalName(g GoalID) string {
	if v != nil && v.Goals != nil {
		if s := v.Goals.Name(int32(g)); s != "" {
			return s
		}
	}
	return fmt.Sprintf("goal#%d", g)
}
