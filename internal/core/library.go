package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"goalrec/internal/intset"
)

// Implementation is one goal implementation: a goal together with the set of
// actions whose joint execution fulfills it (Definition 3.1 of the paper).
// Actions is strictly increasing.
type Implementation struct {
	Goal    GoalID
	Actions []ActionID
}

// Errors returned by the library builder.
var (
	ErrEmptyActivity = errors.New("core: implementation with empty activity")
	ErrNegativeID    = errors.New("core: negative id")
)

// Builder accumulates goal implementations and freezes them into an
// immutable Library. The zero value is ready to use.
type Builder struct {
	implGoal  []GoalID
	implOff   []int32 // implOff[i]..implOff[i+1] delimit actions of impl i in implActs
	implActs  []ActionID
	maxAction ActionID
	maxGoal   GoalID
}

// NewBuilder returns a Builder with capacity hints for n implementations of
// avgLen actions each.
func NewBuilder(n, avgLen int) *Builder {
	b := &Builder{
		implGoal: make([]GoalID, 0, n),
		implOff:  make([]int32, 1, n+1),
		implActs: make([]ActionID, 0, n*avgLen),
	}
	b.maxAction, b.maxGoal = -1, -1
	return b
}

func (b *Builder) init() {
	if len(b.implOff) == 0 {
		b.implOff = append(b.implOff, 0)
		b.maxAction, b.maxGoal = -1, -1
	}
}

// Add records the implementation (goal, actions). The action list may be
// unsorted and may contain duplicates; it is normalized. Add keeps its own
// copy of actions. It returns the id assigned to the implementation.
func (b *Builder) Add(goal GoalID, actions []ActionID) (ImplID, error) {
	b.init()
	acts, err := appendRow(b.implActs, len(b.implActs), goal, actions)
	if err != nil {
		return NoImpl, err
	}
	id := ImplID(len(b.implGoal))
	b.implGoal = append(b.implGoal, goal)
	b.implActs = acts
	b.implOff = append(b.implOff, int32(len(acts)))
	b.maxGoal = max(b.maxGoal, goal)
	b.maxAction = max(b.maxAction, acts[len(acts)-1])
	return id, nil
}

// appendRow normalises the row (goal, actions) onto the end of acts —
// actions sorted, duplicates dropped — and returns the extended acts. acts
// is the tail of an implementation CSR holding slots action slots in all.
// appendRow refuses a negative id, an empty row, and a row that would take
// the CSR past the int32 offsets; acts' contents are then unchanged, only
// its spare capacity may have been written. Builder.Add and the
// DynamicLibrary's appends share it, so every loader enforces the same rules.
func appendRow(acts []ActionID, slots int, goal GoalID, actions []ActionID) ([]ActionID, error) {
	if goal < 0 {
		return acts, fmt.Errorf("%w: goal %d", ErrNegativeID, goal)
	}
	n := len(acts)
	grown := append(acts, actions...)
	row := intset.FromUnsorted(grown[n:])
	switch {
	case len(row) == 0:
		return acts, ErrEmptyActivity
	case row[0] < 0:
		return acts, fmt.Errorf("%w: action %d", ErrNegativeID, row[0])
	case slots+len(row) > math.MaxInt32:
		return acts, fmt.Errorf("core: library of %d action slots exceeds the 32-bit offset space", slots+len(row))
	}
	return grown[:n+len(row)], nil
}

// Len returns the number of implementations added so far.
func (b *Builder) Len() int { return len(b.implGoal) }

// Build freezes the accumulated implementations into a Library. The Builder
// may keep accepting Adds afterwards; the built Library is unaffected: it
// views full-slice (len == cap) prefixes of the Builder's append-only arrays,
// exactly as DynamicLibrary snapshots do, and Add only ever writes past them.
func (b *Builder) Build() *Library {
	b.init()
	n, slots := len(b.implGoal), len(b.implActs)
	lib := &Library{
		implGoal:   b.implGoal[:n:n],
		implOff:    b.implOff[: n+1 : n+1],
		implActs:   b.implActs[:slots:slots],
		numActions: int(b.maxAction) + 1,
		numGoals:   int(b.maxGoal) + 1,
	}
	lib.buildIndexes()
	return lib
}

// buildIndexes derives the posting indexes (A-GI-idx, G-GI-idx and GA-idx)
// from the implementation CSR. It is called once per immutable Library, by
// Builder.Build, the loaders and DynamicLibrary compaction — always on a
// contiguous CSR: a tail segment exists only on the extended snapshots that
// reuse these indexes.
func (l *Library) buildIndexes() {
	if len(l.tailGoal) != 0 {
		panic("core: buildIndexes on a library with a tail segment")
	}
	nImpl := len(l.implGoal)
	nAct, nGoal := l.numActions, l.numGoals

	// Counting sort of (action, impl) pairs into the A-GI-idx postings and of
	// (goal, impl) pairs into G-GI-idx. Impl ids are appended in increasing
	// order, so each posting list comes out sorted.
	actCount := make([]int32, nAct+1)
	for _, a := range l.implActs {
		actCount[a+1]++
	}
	for i := 1; i <= nAct; i++ {
		actCount[i] += actCount[i-1]
	}
	l.actOff = actCount
	l.actPost = make([]ImplID, len(l.implActs))
	cursor := append([]int32(nil), actCount[:nAct]...)
	for p := 0; p < nImpl; p++ {
		for _, a := range l.implActions(ImplID(p)) {
			l.actPost[cursor[a]] = ImplID(p)
			cursor[a]++
		}
	}

	goalCount := make([]int32, nGoal+1)
	for _, g := range l.implGoal {
		goalCount[g+1]++
	}
	for i := 1; i <= nGoal; i++ {
		goalCount[i] += goalCount[i-1]
	}
	l.goalOff = goalCount
	l.goalPost = make([]ImplID, nImpl)
	gCursor := append([]int32(nil), goalCount[:nGoal]...)
	for p, g := range l.implGoal {
		l.goalPost[gCursor[g]] = ImplID(p)
		gCursor[g]++
	}

	// GA-idx: the sorted (action, count) row of every goal whose
	// implementations share an action, count = number of the goal's
	// implementations containing the action. Every other goal stores an
	// empty row: its implementations are action-disjoint, so each of its
	// multiplicities is 1 and its row is the union of its implementation
	// rows, which the scans walk instead (StoredGoalRow). One goal-major pass
	// over the G-GI-idx counts each goal's actions in cnt, listing them in
	// touched; a goal with one implementation shares nothing and is skipped.
	l.gaOff = make([]int32, nGoal+1)
	l.gaAct, l.gaCnt = nil, nil
	cnt := make([]int32, nAct)
	var touched []ActionID
	for g := 0; g < nGoal; g++ {
		if impls := l.goalPost[l.goalOff[g]:l.goalOff[g+1]]; len(impls) > 1 {
			shared := false
			for _, p := range impls {
				for _, a := range l.implActions(p) {
					if cnt[a]++; cnt[a] == 1 {
						touched = append(touched, a)
					} else {
						shared = true
					}
				}
			}
			if shared {
				slices.Sort(touched)
				for _, a := range touched {
					l.gaAct = append(l.gaAct, a)
					l.gaCnt = append(l.gaCnt, cnt[a])
				}
			}
			for _, a := range touched {
				cnt[a] = 0
			}
			touched = touched[:0]
		}
		l.gaOff[g+1] = int32(len(l.gaAct))
	}

	l.maxImplLen = 0
	for p := 0; p < len(l.implGoal); p++ {
		l.maxImplLen = max(l.maxImplLen, l.implOff[p+1]-l.implOff[p])
	}
}

// Library is the immutable association-based goal model (Figure 2 of the
// paper): every implementation is a labelled hyperedge over actions, stored
// in CSR form together with the three posting indexes
//
//	A-GI-idx: action -> implementations containing it
//	G-GI-idx: goal   -> implementations fulfilling it
//	GA-idx:   goal   -> distinct (action, multiplicity) pairs
//
// The GA-idx stores the row of a goal only when some multiplicity in it is
// above 1, i.e. when two of the goal's implementations share an action. Every
// other goal's implementations are action-disjoint, and its row — each action
// of each implementation, multiplicity 1 — is its G-GI-idx and GI-A-idx rows
// read in turn (StoredGoalRow, ActionsOfGoal).
//
// An action's goals and their multiplicities are not stored: they are one
// GI-G lookup per posting of the action's A-GI-idx row away, and every
// consumer (Best Match's profile, the goal space) walks those rows anyway.
//
// A Library is safe for concurrent readers.
//
// Libraries come in two internal shapes. A *flat* library (Builder.Build,
// the codecs) stores every index as packed CSR arrays. An *extended* library
// (a DynamicLibrary snapshot) shares every flat array of an earlier epoch —
// the base, which is never copied or written, wherever it lives — and holds
// only what was appended since: the new implementations in a tail segment
// of the implementation CSR, and overlay rows for just the actions and goals
// they touched. Untouched rows keep serving from the base, which is what
// makes snapshotting an append sub-linear in library size. All accessors
// resolve tail and overlay transparently, so the two shapes are
// observationally identical.
type Library struct {
	implGoal []GoalID   // GI-G-idx: implementation -> goal
	implOff  []int32    // CSR offsets into implActs (GI-A-idx)
	implActs []ActionID // concatenated, per-impl sorted action lists

	// Tail segment of the implementation CSR, non-empty only on extended
	// snapshots: implementations len(implGoal).. in the same form, with
	// tailOff counting from 0 into tailActs.
	tailGoal []GoalID
	tailOff  []int32
	tailActs []ActionID

	actOff  []int32  // CSR offsets into actPost, len numActions+1
	actPost []ImplID // A-GI-idx postings, sorted per action

	goalOff  []int32  // CSR offsets into goalPost, len numGoals+1
	goalPost []ImplID // G-GI-idx postings, sorted per goal

	// GA-idx: per-goal sorted distinct actions with multiplicities, in CSR
	// form. gaCnt[i] is the number of the goal's implementations containing
	// gaAct[i], always ≥ 1. A goal whose multiplicities are all 1 may store an
	// empty row, and a library built here always does; an image written
	// before rows were dropped stores every row.
	gaOff []int32 // CSR offsets into gaAct/gaCnt, len numGoals+1
	gaAct []ActionID
	gaCnt []int32

	maxImplLen int32 // largest |A_p| in the library
	mapped     bool  // the flat index arrays are views over a snapshot mapping
	// checked is the complete stamp of the file OpenSnapshotVerified
	// checksummed and mapped this library from, the zero stamp for any
	// other library (LinkSnapshotFileFS).
	checked FileStamp

	// Copy-on-write overlays (overlay.go), non-empty only on extended
	// snapshots: for the actions/goals touched since the last flat index
	// build, an action's appended ids (the tail run after its base row) and
	// a goal's merged rows. The index arrays above then belong to the base
	// epoch and cover only ids below their own lengths; every accessor
	// consults the overlay.
	ovAct  ovTable[actRow]
	ovGoal ovTable[goalRow]

	numActions int
	numGoals   int

	// epoch numbers the snapshot within a DynamicLibrary or Engine lineage;
	// libraries built directly (Builder.Build, the codecs) are epoch 0.
	epoch uint64
}

// Epoch returns the snapshot's epoch number. Snapshots taken from one
// DynamicLibrary (or Engine) carry strictly increasing epochs; directly
// built libraries are epoch 0.
func (l *Library) Epoch() uint64 { return l.epoch }

// WithEpoch returns a shallow copy of l stamped with epoch e, used when an
// externally built library is swapped into a DynamicLibrary lineage, and when
// a shard opened from its snapshot file takes the epoch of the library it was
// cut from. The copy keeps the stamp of the file l was verified from.
func (l *Library) WithEpoch(e uint64) *Library {
	c := *l
	c.epoch = e
	return &c
}

// MaxImplLen returns the largest |A_p| in the library, 0 when empty.
func (l *Library) MaxImplLen() int { return int(l.maxImplLen) }

// NumImplementations returns |L|.
func (l *Library) NumImplementations() int { return len(l.implGoal) + len(l.tailGoal) }

// NumActions returns the size of the action id space (max id + 1).
func (l *Library) NumActions() int { return l.numActions }

// NumGoals returns the size of the goal id space (max id + 1).
func (l *Library) NumGoals() int { return l.numGoals }

// Goal returns the goal the implementation p fulfills (GI-G-idx lookup).
// It panics if p is out of range.
func (l *Library) Goal(p ImplID) GoalID {
	if int(p) < len(l.implGoal) {
		return l.implGoal[p]
	}
	return l.tailGoal[int(p)-len(l.implGoal)]
}

// Actions returns the sorted action set of implementation p (GI-A-idx
// lookup). The returned slice is a view into the library and must not be
// modified. It panics if p is out of range.
func (l *Library) Actions(p ImplID) []ActionID {
	return l.implActions(p)
}

func (l *Library) implActions(p ImplID) []ActionID {
	if int(p) < len(l.implGoal) {
		return l.implActs[l.implOff[p]:l.implOff[p+1]]
	}
	q := int(p) - len(l.implGoal)
	return l.tailActs[l.tailOff[q]:l.tailOff[q+1]]
}

// ImplLen returns |A_p| without materializing the action view.
func (l *Library) ImplLen(p ImplID) int {
	if int(p) < len(l.implGoal) {
		return int(l.implOff[p+1] - l.implOff[p])
	}
	q := int(p) - len(l.implGoal)
	return int(l.tailOff[q+1] - l.tailOff[q])
}

// flatTailOff returns the offsets that continue implOff over the tail in a
// contiguous implementation CSR: tailOff[1:] shifted by the base's slot
// count. The serializers write it after implOff.
func (l *Library) flatTailOff() []int32 {
	if len(l.tailGoal) == 0 {
		return nil
	}
	out := make([]int32, len(l.tailGoal))
	for q := range out {
		out[q] = int32(len(l.implActs)) + l.tailOff[q+1]
	}
	return out
}

// NumPostings returns the total posting count Σ_p |A_p| — the A-GI-idx
// size, used by cost models choosing between scan directions.
func (l *Library) NumPostings() int { return len(l.implActs) + len(l.tailActs) }

// ActionRows returns the A-GI-idx row of action a — the implementation space
// IS(a) of the paper — as two sorted runs: base, the flat index's row, and
// tail, the ids appended since, each larger than every base id. Both are views
// that must not be modified; ids outside the library yield two empty runs.
func (l *Library) ActionRows(a ActionID) (base, tail []ImplID) {
	if uint32(a) < uint32(l.numActions) {
		if int(a)+1 < len(l.actOff) {
			base = l.actPost[l.actOff[a]:l.actOff[a+1]]
		}
		if l.ovAct.pages != nil {
			if r := l.ovAct.pages[a>>ovPageBits][a&(ovPageRows-1)]; r != nil {
				tail = r.post
			}
		}
	}
	return base, tail
}

// ImplsOfAction returns ActionRows(a) as one slice that must not be modified:
// the base run itself when the tail is empty, else a fresh concatenation.
func (l *Library) ImplsOfAction(a ActionID) []ImplID {
	base, tail := l.ActionRows(a)
	if len(tail) == 0 {
		return base
	}
	return slices.Concat(base, tail)
}

// ImplsOfGoal returns the sorted implementation ids fulfilling goal g
// (G-GI-idx lookup). The returned slice is a view and must not be modified.
// Ids outside the library yield an empty slice.
func (l *Library) ImplsOfGoal(g GoalID) []ImplID {
	if uint32(g) < uint32(l.numGoals) {
		if l.ovGoal.pages != nil {
			if r := l.ovGoal.pages[g>>ovPageBits][g&(ovPageRows-1)]; r != nil {
				return r.post
			}
		}
		if int(g)+1 < len(l.goalOff) {
			return l.goalPost[l.goalOff[g]:l.goalOff[g+1]]
		}
	}
	return nil
}

// ActionDegree returns the connectivity of one action: the number of
// implementations it participates in, the length of its two runs.
func (l *Library) ActionDegree(a ActionID) int {
	base, tail := l.ActionRows(a)
	return len(base) + len(tail)
}

// StoredGoalRow returns the GA-idx row goal g stores: its sorted distinct
// actions with their multiplicities (how many of the goal's implementations
// contain each), as views into the library that must not be modified. The
// row is empty when the goal stores none, which it may only when every
// multiplicity is 1: its implementations are then action-disjoint, and
// walking ImplsOfGoal(g) and each one's Actions visits every action of its
// row exactly once. Scans that visit a goal's row read this; anything that
// wants the row itself calls ActionsOfGoal.
func (l *Library) StoredGoalRow(g GoalID) ([]ActionID, []int32) {
	if uint32(g) < uint32(l.numGoals) {
		if l.ovGoal.pages != nil {
			if r := l.ovGoal.pages[g>>ovPageBits][g&(ovPageRows-1)]; r != nil {
				return r.gaAct, r.gaCnt
			}
		}
		if int(g)+1 < len(l.gaOff) {
			lo, hi := l.gaOff[g], l.gaOff[g+1]
			return l.gaAct[lo:hi], l.gaCnt[lo:hi]
		}
	}
	return nil, nil
}

// ActionsOfGoal returns the whole GA-idx row of goal g: the sorted distinct
// actions appearing in the goal's implementations, with the per-action
// multiplicity. A stored row comes back as views into the library; the row of
// a goal that stores none is assembled from its implementation rows, every
// multiplicity 1, into fresh slices. Neither may be modified. Ids outside the
// library and goals without implementations yield empty slices.
func (l *Library) ActionsOfGoal(g GoalID) ([]ActionID, []int32) {
	if acts, cnts := l.StoredGoalRow(g); len(acts) > 0 {
		return acts, cnts
	}
	var acts []ActionID
	for _, p := range l.ImplsOfGoal(g) {
		acts = append(acts, l.implActions(p)...)
	}
	if acts == nil {
		return nil, nil
	}
	slices.Sort(acts)
	cnts := make([]int32, len(acts))
	for i := range cnts {
		cnts[i] = 1
	}
	return acts, cnts
}

// GoalActionCount returns the number of distinct actions of goal g: the
// GA-idx row length, the exact cost of a goal-major visit of the goal. It
// assembles no row.
func (l *Library) GoalActionCount(g GoalID) int {
	if acts, _ := l.StoredGoalRow(g); len(acts) > 0 {
		return len(acts)
	}
	n := 0
	for _, p := range l.ImplsOfGoal(g) {
		n += l.ImplLen(p)
	}
	return n
}

// sharesAction reports whether a GA row with the multiplicities cnts must be
// stored: whether two of the goal's implementations share an action.
func sharesAction(cnts []int32) bool {
	for _, c := range cnts {
		if c > 1 {
			return true
		}
	}
	return false
}

// Implementation materializes implementation p as a value with its own
// action slice copy.
func (l *Library) Implementation(p ImplID) Implementation {
	return Implementation{Goal: l.Goal(p), Actions: intset.Clone(l.implActions(p))}
}
