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
	"fmt"
	"hash/maphash"
	"math"
	"sync"
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
// open-addressing table built at open, so a start allocates nothing per
// name, the garbage collector has nothing to scan, and base lookups take no
// lock. Only names interned afterwards (engine ingest) go to the map and the
// slice, with ids continuing at baseLen.
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
	baseTab    []int32 // open addressing, id+1 per slot, 0 = empty; a power of two long
	baseSeed   maphash.Seed
	baseLen    int32
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
// names off delimits in blob, both of which it keeps views of. It validates
// what every later access relies on — offsets that start at 0, never
// decrease, end at len(blob) and delimit no name longer than maxName — and
// refuses a name that occurs twice.
func newFrozenInterner(off []uint64, blob []byte, maxName uint64) (*Interner, error) {
	if len(off) == 0 || off[0] != 0 || off[len(off)-1] != uint64(len(blob)) {
		return nil, fmt.Errorf("name offsets do not span the %d-byte blob", len(blob))
	}
	n := len(off) - 1
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("implausible name count %d", n)
	}
	for i := 0; i < n; i++ {
		if lo, hi := off[i], off[i+1]; hi < lo || hi-lo > maxName || hi > uint64(len(blob)) {
			return nil, fmt.Errorf("implausible name %d: bytes [%d, %d)", i, lo, hi)
		}
	}
	size := 8
	for size < n+n/2 {
		size <<= 1
	}
	in := &Interner{
		baseOff: off, baseBlob: blob, baseLen: int32(n),
		baseTab: make([]int32, size), baseSeed: maphash.MakeSeed(),
	}
	mask := uint64(size - 1)
	for id := int32(0); id < in.baseLen; id++ {
		name := in.baseName(id)
		i := maphash.Bytes(in.baseSeed, name) & mask
		for ; in.baseTab[i] != 0; i = (i + 1) & mask {
			if bytes.Equal(in.baseName(in.baseTab[i]-1), name) {
				return nil, fmt.Errorf("duplicate name %q (ids %d and %d)", name, in.baseTab[i]-1, id)
			}
		}
		in.baseTab[i] = id + 1
	}
	return in, nil
}

// baseName returns the bytes of base name id, aliasing the snapshot image.
func (in *Interner) baseName(id int32) []byte {
	return in.baseBlob[in.baseOff[id]:in.baseOff[id+1]]
}

// lookupBase probes the frozen base for name. It takes no lock: the base
// never changes.
func (in *Interner) lookupBase(name string) (int32, bool) {
	if in.baseLen == 0 {
		return 0, false
	}
	mask := uint64(len(in.baseTab) - 1)
	for i := maphash.String(in.baseSeed, name) & mask; ; i = (i + 1) & mask {
		v := in.baseTab[i]
		if v == 0 {
			return 0, false
		}
		if string(in.baseName(v-1)) == name {
			return v - 1, true
		}
	}
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

// Name returns the name for id, or "" if id is out of range. The result is
// the caller's to keep: a base name is copied out of the snapshot image.
func (in *Interner) Name(id int32) string {
	if id < 0 {
		return ""
	}
	if id < in.baseLen {
		return string(in.baseName(id))
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
// base names copied. Either way it must not be modified by the caller.
func (in *Interner) Names() []string {
	in.mu.RLock()
	grown := in.names[:len(in.names):len(in.names)]
	in.mu.RUnlock()
	if in.baseLen == 0 {
		return grown
	}
	out := make([]string, 0, int(in.baseLen)+len(grown))
	for id := int32(0); id < in.baseLen; id++ {
		out = append(out, string(in.baseName(id)))
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
	off := make([]uint64, 1, int(in.baseLen)+len(grown)+1)
	blob := append([]byte(nil), in.baseBlob...)
	if in.baseLen > 0 {
		off = append(off, in.baseOff[1:]...)
	}
	for _, s := range grown {
		blob = append(blob, s...)
		off = append(off, uint64(len(blob)))
	}
	return off, blob
}

// InternerStats says where an Interner's names live.
type InternerStats struct {
	BaseNames  int   // served from a snapshot image
	GrownNames int   // interned since, on the heap
	TableBytes int64 // the base's lookup table
	Mapped     bool  // the base lies in a file mapping
}

// Stats reports where in's names live.
func (in *Interner) Stats() InternerStats {
	return InternerStats{
		BaseNames:  int(in.baseLen),
		GrownNames: in.Len() - int(in.baseLen),
		TableBytes: 4 * int64(len(in.baseTab)),
		Mapped:     in.baseMapped,
	}
}

// Vocabulary pairs the action and goal dictionaries of a library built from
// named data.
type Vocabulary struct {
	Actions *Interner
	Goals   *Interner
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
