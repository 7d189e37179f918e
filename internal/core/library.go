package core

import (
	"errors"
	"fmt"

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
	implGoal   []GoalID
	implOff    []int32 // implOff[i]..implOff[i+1] delimit actions of impl i in implActs
	implActs   []ActionID
	maxAction  ActionID
	maxGoal    GoalID
	totalSlots int
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
	if goal < 0 {
		return NoImpl, fmt.Errorf("%w: goal %d", ErrNegativeID, goal)
	}
	norm := intset.FromUnsorted(intset.Clone(actions))
	if len(norm) == 0 {
		return NoImpl, ErrEmptyActivity
	}
	if norm[0] < 0 {
		return NoImpl, fmt.Errorf("%w: action %d", ErrNegativeID, norm[0])
	}
	id := ImplID(len(b.implGoal))
	b.implGoal = append(b.implGoal, goal)
	b.implActs = append(b.implActs, norm...)
	b.implOff = append(b.implOff, int32(len(b.implActs)))
	if goal > b.maxGoal {
		b.maxGoal = goal
	}
	if last := norm[len(norm)-1]; last > b.maxAction {
		b.maxAction = last
	}
	b.totalSlots += len(norm)
	return id, nil
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

// checkImplCSR verifies the implementation CSR every Library is indexed
// from — offsets spanning exactly implActs, every row non-empty, ids
// non-negative, action rows strictly increasing — and returns the largest
// action and goal ids present (−1 when there are no implementations). The
// loaders that assemble a CSR themselves run it before buildIndexes, which
// trusts these invariants.
func checkImplCSR(implGoal []GoalID, implOff []int32, implActs []ActionID) (maxAction ActionID, maxGoal GoalID, err error) {
	nImpl, nSlots := len(implGoal), len(implActs)
	maxAction, maxGoal = -1, -1
	if len(implOff) != nImpl+1 || implOff[0] != 0 || int(implOff[nImpl]) != nSlots {
		return -1, -1, fmt.Errorf("core: corrupt library: %d offsets for %d implementations over %d slots", len(implOff), nImpl, nSlots)
	}
	for p := 0; p < nImpl; p++ {
		lo, hi := implOff[p], implOff[p+1]
		if hi <= lo || int(hi) > nSlots {
			return -1, -1, fmt.Errorf("core: corrupt offsets for implementation %d", p)
		}
		acts := implActs[lo:hi]
		if acts[0] < 0 {
			return -1, -1, fmt.Errorf("core: implementation %d: %w: action %d", p, ErrNegativeID, acts[0])
		}
		for i := 1; i < len(acts); i++ {
			if acts[i] <= acts[i-1] {
				return -1, -1, fmt.Errorf("core: implementation %d: action list not strictly increasing at slot %d", p, i)
			}
		}
		if g := implGoal[p]; g < 0 {
			return -1, -1, fmt.Errorf("core: implementation %d: %w: goal %d", p, ErrNegativeID, g)
		} else if g > maxGoal {
			maxGoal = g
		}
		if last := acts[len(acts)-1]; last > maxAction {
			maxAction = last
		}
	}
	return maxAction, maxGoal, nil
}

// buildIndexes derives the posting indexes (A-GI-idx, G-GI-idx and AG-idx)
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

	// Per-goal slot totals: Σ |A_p| over the goal's implementations, the
	// exact cost of walking every implementation of the goal. The strategies
	// use these to choose between candidate-major and goal-major scoring.
	l.goalSlots = make([]int32, nGoal)
	for p, g := range l.implGoal {
		l.goalSlots[g] += l.implOff[p+1] - l.implOff[p]
	}

	// AG-idx: per-action sorted (goal, count) pairs, count = number of the
	// goal's implementations containing the action. Built in two linear
	// passes over the G-GI-idx: iterating goals in increasing id order means
	// each action's goal list comes out sorted with no per-action sort.
	// lastGoal[a] tracks the goal currently being appended for action a, so a
	// repeat occurrence within the same goal increments the count in place.
	lastGoal := make([]GoalID, nAct)
	for i := range lastGoal {
		lastGoal[i] = -1
	}
	agCount := make([]int32, nAct+1)
	for g := GoalID(0); int(g) < nGoal; g++ {
		for _, p := range l.goalPost[l.goalOff[g]:l.goalOff[g+1]] {
			for _, a := range l.implActions(p) {
				if lastGoal[a] != g {
					lastGoal[a] = g
					agCount[a+1]++
				}
			}
		}
	}
	for i := 1; i <= nAct; i++ {
		agCount[i] += agCount[i-1]
	}
	l.agOff = agCount
	l.agGoal = make([]GoalID, agCount[nAct])
	l.agCnt = make([]int32, agCount[nAct])
	agCursor := append([]int32(nil), agCount[:nAct]...)
	for i := range lastGoal {
		lastGoal[i] = -1
	}
	for g := GoalID(0); int(g) < nGoal; g++ {
		for _, p := range l.goalPost[l.goalOff[g]:l.goalOff[g+1]] {
			for _, a := range l.implActions(p) {
				if lastGoal[a] != g {
					lastGoal[a] = g
					l.agGoal[agCursor[a]] = g
					l.agCnt[agCursor[a]] = 1
					agCursor[a]++
				} else {
					l.agCnt[agCursor[a]-1]++
				}
			}
		}
	}

	// GA-idx: the transpose of the AG-idx — per-goal sorted (action, count)
	// pairs, count = number of the goal's implementations containing the
	// action. Iterating actions in increasing id order leaves every goal row
	// sorted with no per-goal sort. Goal-major scans read these contiguous
	// rows instead of dereferencing each implementation of the goal, so
	// their cost — and cache behavior — is independent of how implementation
	// ids are laid out (impact ordering scatters a goal's implementations
	// across the id space).
	gaCount := make([]int32, nGoal+1)
	for _, g := range l.agGoal {
		gaCount[g+1]++
	}
	for i := 1; i <= nGoal; i++ {
		gaCount[i] += gaCount[i-1]
	}
	l.gaOff = gaCount
	l.gaAct = make([]ActionID, gaCount[nGoal])
	l.gaCnt = make([]int32, gaCount[nGoal])
	gaCursor := append([]int32(nil), gaCount[:nGoal]...)
	for a := 0; a < nAct; a++ {
		for i := l.agOff[a]; i < l.agOff[a+1]; i++ {
			g := l.agGoal[i]
			l.gaAct[gaCursor[g]] = ActionID(a)
			l.gaCnt[gaCursor[g]] = l.agCnt[i]
			gaCursor[g]++
		}
	}

	l.buildBlocks()
}

// Library is the immutable association-based goal model (Figure 2 of the
// paper): every implementation is a labelled hyperedge over actions, stored
// in CSR form together with the three posting indexes
//
//	A-GI-idx: action -> implementations containing it
//	G-GI-idx: goal   -> implementations fulfilling it
//	AG-idx:   action -> distinct (goal, multiplicity) pairs
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

	// AG-idx: per-action sorted distinct goal lists with multiplicities.
	// agCnt[i] is the number of implementations of goal agGoal[i] containing
	// the action. Collapses the per-implementation postings for consumers
	// that only need goal totals (profiles, goal spaces), turning O(|IS(a)|)
	// walks with random GI-G lookups into shorter sequential scans.
	agOff  []int32  // CSR offsets into agGoal/agCnt, len numActions+1
	agGoal []GoalID // sorted per action
	agCnt  []int32  // parallel multiplicities, all ≥ 1

	// GA-idx (transpose of AG-idx): per-goal sorted distinct actions with
	// the same multiplicities, in CSR form.
	gaOff []int32 // CSR offsets into gaAct/gaCnt, len numGoals+1
	gaAct []ActionID
	gaCnt []int32

	goalSlots []int32 // per-goal Σ |A_p|, the walk cost of the goal's impls

	// Block-max metadata over the A-GI postings (see blocks.go): per-row
	// fixed-size block summaries in CSR form, aligned with actOff/actPost.
	blkOff    []int32  // CSR offsets into the blk arrays, len numActions+1
	blkLast   []ImplID // last implementation id per block
	blkMinLen []int32  // min |A_p| per block
	blkMaxLen []int32  // max |A_p| per block

	maxImplLen    int32 // largest |A_p| in the library
	implLenSorted bool  // |A_p| non-decreasing in id (impact-ordered layout)
	mapped        bool  // the flat index arrays are views over a snapshot mapping

	// Copy-on-write overlays (overlay.go), non-empty only on extended
	// snapshots: merged rows for the actions/goals touched since the last
	// flat index build. The index arrays above then belong to the base epoch
	// and cover only ids below their own lengths; every accessor consults
	// the overlay first.
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
// cut from.
func (l *Library) WithEpoch(e uint64) *Library {
	c := *l
	c.epoch = e
	return &c
}

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

// ImplsOfAction returns the sorted implementation ids containing action a
// (A-GI-idx lookup); this is the implementation space IS(a) of the paper.
// The returned slice is a view and must not be modified. Ids outside the
// library yield an empty slice.
func (l *Library) ImplsOfAction(a ActionID) []ImplID {
	if uint32(a) < uint32(l.numActions) {
		if l.ovAct.pages != nil {
			if r := l.ovAct.pages[a>>ovPageBits][a&(ovPageRows-1)]; r != nil {
				return r.post
			}
		}
		if int(a)+1 < len(l.actOff) {
			return l.actPost[l.actOff[a]:l.actOff[a+1]]
		}
	}
	return nil
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
// implementations it participates in, read from the CSR offsets in O(1).
func (l *Library) ActionDegree(a ActionID) int {
	if uint32(a) < uint32(l.numActions) {
		if l.ovAct.pages != nil {
			if r := l.ovAct.pages[a>>ovPageBits][a&(ovPageRows-1)]; r != nil {
				return len(r.post)
			}
		}
		if int(a)+1 < len(l.actOff) {
			return int(l.actOff[a+1] - l.actOff[a])
		}
	}
	return 0
}

// GoalsOfAction returns the AG-idx row of action a: the sorted distinct
// goals whose implementations contain a, with the per-goal multiplicity
// (how many of the goal's implementations contain a). Both slices are views
// into the library and must not be modified. Ids outside the library yield
// empty slices.
func (l *Library) GoalsOfAction(a ActionID) ([]GoalID, []int32) {
	if uint32(a) < uint32(l.numActions) {
		if l.ovAct.pages != nil {
			if r := l.ovAct.pages[a>>ovPageBits][a&(ovPageRows-1)]; r != nil {
				return r.agGoal, r.agCnt
			}
		}
		if int(a)+1 < len(l.agOff) {
			lo, hi := l.agOff[a], l.agOff[a+1]
			return l.agGoal[lo:hi], l.agCnt[lo:hi]
		}
	}
	return nil, nil
}

// ActionsOfGoal returns the GA-idx row of goal g: the sorted distinct
// actions appearing in the goal's implementations, with the per-action
// multiplicity (how many of the goal's implementations contain the action).
// It is the transpose view of GoalsOfAction. Both slices are views into the
// library and must not be modified. Ids outside the library yield empty
// slices.
func (l *Library) ActionsOfGoal(g GoalID) ([]ActionID, []int32) {
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

// GoalActionCount returns the number of distinct actions of goal g: the
// GA-idx row length, the exact cost of a goal-major visit of the goal.
func (l *Library) GoalActionCount(g GoalID) int {
	acts, _ := l.ActionsOfGoal(g)
	return len(acts)
}

// GoalDegree returns the number of distinct goals action a contributes to:
// the AG-idx row length, the quantity that bounds the per-candidate scoring
// cost of Best Match.
func (l *Library) GoalDegree(a ActionID) int {
	goals, _ := l.GoalsOfAction(a)
	return len(goals)
}

// ActionGoalCount returns the number of implementations of goal g that
// contain action a, by binary search in a's AG-idx row. It is the count
// Explain and TopGoals previously derived by walking the full A-GI posting
// list of a.
func (l *Library) ActionGoalCount(a ActionID, g GoalID) int {
	goals, counts := l.GoalsOfAction(a)
	lo, hi := 0, len(goals)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if goals[mid] < g {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(goals) && goals[lo] == g {
		return int(counts[lo])
	}
	return 0
}

// GoalWalkCost returns Σ |A_p| over the implementations of goal g: the exact
// cost of visiting every slot of the goal. Ids outside the library yield 0.
func (l *Library) GoalWalkCost(g GoalID) int {
	if uint32(g) < uint32(l.numGoals) {
		if l.ovGoal.pages != nil {
			if r := l.ovGoal.pages[g>>ovPageBits][g&(ovPageRows-1)]; r != nil {
				return int(r.slots)
			}
		}
		if int(g) < len(l.goalSlots) {
			return int(l.goalSlots[g])
		}
	}
	return 0
}

// Implementation materializes implementation p as a value with its own
// action slice copy.
func (l *Library) Implementation(p ImplID) Implementation {
	return Implementation{Goal: l.Goal(p), Actions: intset.Clone(l.implActions(p))}
}
