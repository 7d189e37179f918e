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
	"slices"
	"sync"
	"sync/atomic"
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
// Names live in two segments of one packed form (nameSeg). The base, ids
// below baseLen, views a snapshot image's sections and its sealed name table
// (or one built at open), so a start builds nothing per name, the garbage
// collector has nothing to scan and base lookups take no lock. The tail, on
// the heap under mu, holds every name interned since, ids continuing at
// baseLen; a parser's or a Builder's Interner has only a tail. A name handed
// out must outlive the image Snapshot.Close unmaps (a ranking kept across
// Store.Close), so Name copies a base name out: nothing aliases the image.
type Interner struct {
	// Frozen base, set once by newFrozenInterner and immutable afterwards.
	base       nameSeg
	baseLen    int32
	baseSealed bool // base.tab is a view of the image, not built at open
	baseMapped bool // the base sections lie in a file mapping

	mu   sync.RWMutex
	tail *nameSeg // names interned beyond the base, nil before the first
}

// nameSeg is a dictionary segment in the packed form a snapshot stores: name
// id is blob[off[id]:off[id+1]], found through tab in buildNameTable's
// layout. A bounded segment (image data) never serves an implausible name;
// only sealing refuses a tail name longer than snapMaxName.
type nameSeg struct {
	off     []uint64
	blob    []byte
	tab     []int32
	bounded bool
}

// NewInterner returns an empty Interner with room for n names' offsets.
func NewInterner(n int) *Interner {
	return &Interner{tail: &nameSeg{off: make([]uint64, 1, n+1)}}
}

// newFrozenInterner returns an Interner whose base views the names off
// delimits in blob, found through tab: the image's sealed table, checked only
// in what is O(1) (nameSeg.name bounds every name, nameSeg.find every probe,
// VerifySnapshot walks both), or, when tab is nil, one built here, refusing
// an implausible or duplicate name.
func newFrozenInterner(off []uint64, blob []byte, tab []int32) (*Interner, error) {
	if len(off) == 0 || off[0] != 0 || off[len(off)-1] != uint64(len(blob)) {
		return nil, fmt.Errorf("name offsets do not span the %d-byte blob", len(blob))
	}
	n := len(off) - 1
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("implausible name count %d", n)
	}
	in := &Interner{base: nameSeg{off: off, blob: blob, tab: tab, bounded: true}, baseLen: int32(n), baseSealed: tab != nil}
	if tab == nil {
		var err error
		if in.base.tab, err = buildNameTable(off, blob); err != nil {
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

// nameHash is the CRC-32C of a name's bytes, the same in every process: in a
// table of mask+1 slots the name's probe starts at nameHash & mask, so the
// sealer and every later open place and find a name alike.
func nameHash(name []byte) uint32 {
	tab := castagnoli.Load()
	if tab == nil {
		tab = crc32.MakeTable(crc32.Castagnoli)
		castagnoli.Store(tab)
	}
	return crc32.Update(0, tab, name)
}

// castagnoli is crc32's Castagnoli table from nameHash's first call on, not
// from every process start: its hardware tables take ≈ 0.25 ms to fill.
var castagnoli atomic.Pointer[crc32.Table]

// buildNameTable lays out the names (off, blob) delimits in an
// open-addressing table of tableSize(n) slots: id+1 per occupied slot, 0 for
// an empty one, each name at its first probe slot or the first free slot
// after it, ids placed in increasing order. The layout is a function of the
// names alone, so a table built at open equals the one a sealer wrote or a
// tail grew. It refuses an implausible name before it is read, and a name
// that occurs twice.
func buildNameTable(off []uint64, blob []byte) ([]int32, error) {
	s := nameSeg{off: off, blob: blob, tab: make([]int32, tableSize(len(off)-1))}
	for id := range int32(len(off) - 1) {
		if !plausibleName(off[id], off[id+1], blob) {
			return nil, fmt.Errorf("implausible name %d: bytes [%d, %d)", id, off[id], off[id+1])
		}
		if other, ok := s.insert(id); !ok {
			return nil, fmt.Errorf("duplicate name %q (ids %d and %d)", blob[off[id]:off[id+1]], other, id)
		}
	}
	return s.tab, nil
}

// plausibleName reports whether the offsets [lo, hi) delimit a name within
// blob no longer than snapMaxName.
func plausibleName(lo, hi uint64, blob []byte) bool {
	return lo <= hi && hi <= uint64(len(blob)) && hi-lo <= snapMaxName
}

// len is the number of names in s; a nil segment holds none.
func (s *nameSeg) len() int {
	if s == nil {
		return 0
	}
	return len(s.off) - 1
}

// name returns the bytes of name id, aliasing s, or false when s is nil, id
// is out of range or, s being bounded, its offsets are not plausible: a
// sealed base's offsets are not walked at open, and this bound keeps an image
// the checksum accepted but no sealer wrote from slicing out of bounds.
func (s *nameSeg) name(id int32) ([]byte, bool) {
	if id < 0 || int(id) >= s.len() {
		return nil, false
	}
	lo, hi := s.off[id], s.off[id+1]
	if s.bounded && !plausibleName(lo, hi, s.blob) {
		return nil, false
	}
	return s.blob[lo:hi], true
}

// find probes s for name, whose nameHash is h: its id and true, or false and
// the empty slot where name would go. A slot naming no name s serves never
// matches and the probe stops after len(tab) slots, so not even a table no
// sealer wrote sends it out of bounds or round forever.
func (s *nameSeg) find(name []byte, h uint32) (int32, uint32, bool) {
	mask := uint32(len(s.tab) - 1)
	i := h & mask
	for range s.tab {
		v := s.tab[i]
		if v == 0 {
			return 0, i, false
		}
		if b, ok := s.name(v - 1); ok && bytes.Equal(b, name) {
			return v - 1, 0, true
		}
		i = (i + 1) & mask
	}
	return 0, i, false
}

// insert places name id in s.tab, which has an empty slot, at the end of the
// name's probe path. When the probe meets an equal name it places nothing
// and returns that name's id and false.
func (s *nameSeg) insert(id int32) (int32, bool) {
	name := s.blob[s.off[id]:s.off[id+1]]
	other, slot, found := s.find(name, nameHash(name))
	if found {
		return other, false
	}
	s.tab[slot] = id + 1
	return id, true
}

// grow appends name, which s does not hold, as its next id. A count that
// outgrows the table gets a new one of tableSize slots, every id re-inserted
// in order, so s.tab keeps buildNameTable's layout and seals as it stands.
func (s *nameSeg) grow(name []byte) int32 {
	s.blob = append(s.blob, name...)
	s.off = append(s.off, uint64(len(s.blob)))
	n := int32(s.len())
	from := n - 1
	if size := tableSize(int(n)); len(s.tab) != size {
		s.tab, from = make([]int32, size), 0
	}
	for id := from; id < n; id++ {
		s.insert(id)
	}
	return n - 1
}

// Intern returns the id for name, assigning the next dense id on first use.
func (in *Interner) Intern(name string) int32 {
	if id, ok := in.Lookup(name); ok {
		return id
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.internUnshared(unsafe.Slice(unsafe.StringData(name), len(name)))
}

// internUnshared is Intern's tail half without the lock, for Intern and for
// a loader's NewInterner, which has no base and no other user yet.
func (in *Interner) internUnshared(name []byte) int32 {
	if in.tail == nil {
		in.tail = &nameSeg{off: []uint64{0}}
	}
	if id, _, ok := in.tail.find(name, nameHash(name)); ok {
		return in.baseLen + id
	}
	return in.baseLen + in.tail.grow(name)
}

// Lookup returns the id for name without assigning one. The second result
// reports whether the name was present.
func (in *Interner) Lookup(name string) (int32, bool) {
	b := unsafe.Slice(unsafe.StringData(name), len(name)) // never written
	h := nameHash(b)
	if id, _, ok := in.base.find(b, h); ok {
		return id, true
	}
	in.mu.RLock()
	defer in.mu.RUnlock()
	if in.tail != nil {
		if id, _, ok := in.tail.find(b, h); ok {
			return in.baseLen + id, true
		}
	}
	return 0, false
}

// Name returns the name for id, or "" if id is out of range or names an
// implausible base name (see nameSeg.name). A base name is copied out of the
// image, which Snapshot.Close may unmap; a tail name aliases the heap blob,
// whose bytes growth never rewrites, so it is kept without a copy.
func (in *Interner) Name(id int32) string {
	if id < in.baseLen {
		b, _ := in.base.name(id)
		return string(b)
	}
	in.mu.RLock()
	defer in.mu.RUnlock()
	b, _ := in.tail.name(id - in.baseLen)
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// Len returns the number of interned names.
func (in *Interner) Len() int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return int(in.baseLen) + in.tail.len()
}

// pack returns the dictionary as one segment: the one holding every name —
// the tail's arrays as they stand, which growth only appends past, its table
// copied when withTab, as growth writes that in place — or a base and a grown
// tail merged, with no table.
func (in *Interner) pack(withTab bool) nameSeg {
	in.mu.RLock()
	t := nameSeg{off: []uint64{0}}
	if in.tail.len() > 0 {
		t = nameSeg{off: in.tail.off, blob: in.tail.blob}
		if withTab && in.baseLen == 0 {
			t.tab = slices.Clone(in.tail.tab)
		}
	}
	in.mu.RUnlock()
	switch {
	case in.baseLen == 0:
		return t
	case t.len() == 0:
		return in.base
	}
	off := append(make([]uint64, 0, len(in.base.off)+t.len()), in.base.off...)
	for _, o := range t.off[1:] {
		off = append(off, uint64(len(in.base.blob))+o)
	}
	return nameSeg{off: off, blob: slices.Concat(in.base.blob, t.blob)}
}

// seal returns the dictionary as a snapshot stores it: pack's sections and
// their name table, a single segment's own once its names are found
// plausible, one built for a base and a grown tail merged.
func (in *Interner) seal() (s nameSeg, err error) {
	if s = in.pack(true); s.tab == nil {
		s.tab, err = buildNameTable(s.off, s.blob)
		return s, err
	}
	for id := range s.len() {
		if !plausibleName(s.off[id], s.off[id+1], s.blob) {
			return s, fmt.Errorf("implausible name %d: bytes [%d, %d)", id, s.off[id], s.off[id+1])
		}
	}
	return s, nil
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
	a, g := v.Actions.pack(false), v.Goals.pack(false)
	c.addPacked(a.off, a.blob, nActions)
	c.addPacked(g.off, g.blob, nGoals)
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
		TableBytes: 4 * int64(len(in.base.tab)),
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
