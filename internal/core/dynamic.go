package core

import (
	"fmt"
	"maps"
	"sync"

	"goalrec/internal/intset"
)

// defaultCompactMin is the smallest append backlog that triggers a full
// index rebuild (compaction). Below it, snapshots extend the previous epoch
// through copy-on-write overlays in time proportional to the rows the
// appends touched, not to the library.
const defaultCompactMin = 1024

// DynamicLibrary is a mutable, concurrency-safe goal-implementation store
// with epoch-numbered snapshot semantics: writers append implementations (or
// swap the whole collection), and readers obtain immutable *Library
// snapshots carrying strictly increasing epochs.
//
// Snapshots are built incrementally. The store owns append-only
// implementation CSR arrays; every snapshot views a full-slice (len == cap)
// prefix of them, so later appends — which only ever write beyond every
// snapshot's length — can never alias memory a reader sees. The posting
// indexes (A-GI-idx, G-GI-idx, AG-idx) of the previous epoch are shared
// wholesale, with fresh merged rows overlaid for just the touched actions
// and goals. Snapshotting an append into a million-implementation library
// therefore costs the touched rows, not a full index derivation; once the
// backlog since the last flat build exceeds max(1024, flat/8), the snapshot
// compacts into a fresh flat library, keeping overlay memory bounded and
// amortizing rebuild cost over the appends that forced it.
//
// Old snapshots stay valid indefinitely and keep returning their epoch's
// results bit-identically; they are never mutated, only superseded.
type DynamicLibrary struct {
	mu sync.Mutex

	// Owned append-only implementation CSR.
	implGoal []GoalID
	implOff  []int32
	implActs []ActionID

	numActions int // id-space high-water marks over appended impls
	numGoals   int

	flatImpls int      // implementations covered by cur's flat CSR indexes
	cur       *Library // latest snapshot; nil until first use
	epoch     uint64

	// compactMin overrides the compaction threshold in tests; 0 selects
	// defaultCompactMin.
	compactMin int
}

// NewDynamicLibrary returns an empty DynamicLibrary. The zero value is also
// ready to use.
func NewDynamicLibrary() *DynamicLibrary {
	return &DynamicLibrary{}
}

func (d *DynamicLibrary) initLocked() {
	if d.cur != nil {
		return
	}
	if len(d.implOff) == 0 {
		d.implOff = append(d.implOff, 0)
	}
	d.cur = d.buildFlatLocked()
	d.flatImpls = len(d.implGoal)
}

// Add appends one implementation; it never blocks readers of previously
// obtained snapshots. The action list may be unsorted and may contain
// duplicates; it is normalized and copied.
func (d *DynamicLibrary) Add(goal GoalID, actions []ActionID) (ImplID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.addLocked(goal, actions)
}

func (d *DynamicLibrary) addLocked(goal GoalID, actions []ActionID) (ImplID, error) {
	d.initLocked()
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
	id := ImplID(len(d.implGoal))
	d.implGoal = append(d.implGoal, goal)
	d.implActs = append(d.implActs, norm...)
	d.implOff = append(d.implOff, int32(len(d.implActs)))
	if n := int(goal) + 1; n > d.numGoals {
		d.numGoals = n
	}
	if n := int(norm[len(norm)-1]) + 1; n > d.numActions {
		d.numActions = n
	}
	return id, nil
}

// AddImplementations appends a batch, stopping at the first invalid
// implementation. It returns the number added.
func (d *DynamicLibrary) AddImplementations(impls []Implementation) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, impl := range impls {
		if _, err := d.addLocked(impl.Goal, impl.Actions); err != nil {
			return i, err
		}
	}
	return len(impls), nil
}

// Len returns the number of implementations ingested so far.
func (d *DynamicLibrary) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.implGoal)
}

// SetCompactionThreshold overrides the minimum append backlog that triggers
// snapshot compaction; n <= 0 restores the default. Lower values trade
// snapshot latency for tighter overlay memory — mostly useful to exercise
// the compaction path in tests.
func (d *DynamicLibrary) SetCompactionThreshold(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.compactMin = n
}

// Epoch returns the epoch of the most recent snapshot. Appends not yet
// snapshotted do not advance it.
func (d *DynamicLibrary) Epoch() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.epoch
}

// Snapshot returns an immutable Library over everything added so far. The
// result is shared between callers until the next write. After appends the
// snapshot is extended incrementally from the previous epoch — cost
// proportional to the index rows the appends touched — with a periodic flat
// compaction once the backlog warrants it.
func (d *DynamicLibrary) Snapshot() *Library {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.snapshotLocked()
}

func (d *DynamicLibrary) snapshotLocked() *Library {
	d.initLocked()
	n := len(d.implGoal)
	if d.cur.NumImplementations() == n {
		return d.cur
	}
	d.epoch++
	min := d.compactMin
	if min <= 0 {
		min = defaultCompactMin
	}
	threshold := d.flatImpls / 8
	if threshold < min {
		threshold = min
	}
	if n-d.flatImpls >= threshold {
		d.cur = d.buildFlatLocked()
		d.flatImpls = n
	} else {
		d.cur = d.extendLocked()
	}
	return d.cur
}

// Swap replaces the store's contents with lib, which becomes the next
// epoch's snapshot. The implementation CSR is borrowed as full-slice
// (len == cap) views — the lineage's own appends reallocate before the first
// write, so memory shared with the caller (or with a memory-mapped snapshot)
// is never mutated and Swap is O(1) regardless of library size. lib itself
// is not mutated. It returns the stamped snapshot.
func (d *DynamicLibrary) Swap(lib *Library) *Library {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := lib.NumImplementations()
	d.implGoal = lib.implGoal[:n:n]
	if len(lib.implOff) >= n+1 {
		d.implOff = lib.implOff[: n+1 : n+1]
	} else {
		d.implOff = []int32{0}
	}
	slots := len(lib.implActs)
	d.implActs = lib.implActs[:slots:slots]
	d.numActions = lib.numActions
	d.numGoals = lib.numGoals
	d.epoch++
	d.cur = lib.withEpoch(d.epoch)
	// Treat the swapped-in library as the flat base for compaction purposes:
	// its own indexes (flat or overlay) serve as the prefix to extend.
	d.flatImpls = n
	return d.cur
}

// RestoreEpoch forces the lineage's epoch counter to e and restamps the
// current snapshot, so a store recovering from a persisted snapshot + WAL
// resumes exactly where the previous process stopped. Restoring backwards
// would violate the strictly-increasing epoch contract and is rejected.
func (d *DynamicLibrary) RestoreEpoch(e uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e < d.epoch {
		return fmt.Errorf("core: cannot restore epoch %d below current %d", e, d.epoch)
	}
	d.initLocked()
	d.epoch = e
	d.cur = d.cur.withEpoch(e)
	return nil
}

// buildFlatLocked derives a fully indexed (flat) library over everything
// appended so far, viewing — not copying — the owned implementation CSR.
func (d *DynamicLibrary) buildFlatLocked() *Library {
	n := len(d.implGoal)
	slots := int(d.implOff[n])
	lib := &Library{
		implGoal:   d.implGoal[:n:n],
		implOff:    d.implOff[: n+1 : n+1],
		implActs:   d.implActs[:slots:slots],
		numActions: d.numActions,
		numGoals:   d.numGoals,
		epoch:      d.epoch,
	}
	lib.buildIndexes()
	return lib
}

// extendLocked builds the next snapshot from the previous one plus the
// pending appends: the implementation CSR grows by prefix sharing, and only
// the posting rows of touched actions/goals are re-materialized into the
// copy-on-write overlay. Merged rows append the new implementation ids —
// which are strictly larger than every previous id — after the old row, so
// row contents are bit-identical to a full rebuild's.
func (d *DynamicLibrary) extendLocked() *Library {
	prev := d.cur
	lo := prev.NumImplementations()
	hi := len(d.implGoal)
	slots := int(d.implOff[hi])

	nl := &Library{
		implGoal:      d.implGoal[:hi:hi],
		implOff:       d.implOff[: hi+1 : hi+1],
		implActs:      d.implActs[:slots:slots],
		actOff:        prev.actOff,
		actPost:       prev.actPost,
		cp:            prev.cp,
		goalOff:       prev.goalOff,
		goalPost:      prev.goalPost,
		agOff:         prev.agOff,
		agGoal:        prev.agGoal,
		agCnt:         prev.agCnt,
		gaOff:         prev.gaOff,
		gaAct:         prev.gaAct,
		gaCnt:         prev.gaCnt,
		goalSlots:     prev.goalSlots,
		blkOff:        prev.blkOff,
		blkLast:       prev.blkLast,
		blkMinLen:     prev.blkMinLen,
		blkMaxLen:     prev.blkMaxLen,
		maxImplLen:    prev.maxImplLen,
		implLenSorted: prev.implLenSorted,
		mapped:        prev.mapped,
		numActions:    d.numActions,
		numGoals:      d.numGoals,
		epoch:         d.epoch,

		ovActPost:   maps.Clone(prev.ovActPost),
		ovGoalPost:  maps.Clone(prev.ovGoalPost),
		ovAgGoal:    maps.Clone(prev.ovAgGoal),
		ovAgCnt:     maps.Clone(prev.ovAgCnt),
		ovGaAct:     maps.Clone(prev.ovGaAct),
		ovGaCnt:     maps.Clone(prev.ovGaCnt),
		ovGoalSlots: maps.Clone(prev.ovGoalSlots),
		ovBlocks:    maps.Clone(prev.ovBlocks),
	}
	if nl.ovActPost == nil {
		nl.ovActPost = make(map[ActionID][]ImplID)
		nl.ovGoalPost = make(map[GoalID][]ImplID)
		nl.ovAgGoal = make(map[ActionID][]GoalID)
		nl.ovAgCnt = make(map[ActionID][]int32)
		nl.ovGoalSlots = make(map[GoalID]int32)
	}
	if nl.ovBlocks == nil {
		nl.ovBlocks = make(map[ActionID]PostingBlocks)
	}
	if nl.ovGaAct == nil {
		nl.ovGaAct = make(map[GoalID][]ActionID)
		nl.ovGaCnt = make(map[GoalID][]int32)
	}
	prevLen := int32(0)
	if lo > 0 {
		prevLen = d.implOff[lo] - d.implOff[lo-1]
	}
	for p := lo; p < hi; p++ {
		n := d.implOff[p+1] - d.implOff[p]
		if n > nl.maxImplLen {
			nl.maxImplLen = n
		}
		if n < prevLen {
			nl.implLenSorted = false
		}
		prevLen = n
	}

	// Group the pending implementations by action and goal.
	pendAct := make(map[ActionID][]ImplID)
	pendGoal := make(map[GoalID][]ImplID)
	pendSlots := make(map[GoalID]int32)
	pendAG := make(map[ActionID]map[GoalID]int32)
	pendGA := make(map[GoalID]map[ActionID]int32)
	for p := lo; p < hi; p++ {
		id := ImplID(p)
		g := d.implGoal[p]
		acts := d.implActs[d.implOff[p]:d.implOff[p+1]]
		pendGoal[g] = append(pendGoal[g], id)
		pendSlots[g] += int32(len(acts))
		ga := pendGA[g]
		if ga == nil {
			ga = make(map[ActionID]int32)
			pendGA[g] = ga
		}
		for _, a := range acts {
			pendAct[a] = append(pendAct[a], id)
			ag := pendAG[a]
			if ag == nil {
				ag = make(map[GoalID]int32)
				pendAG[a] = ag
			}
			ag[g]++
			ga[a]++
		}
	}

	// A-GI-idx rows: old row (overlay or base CSR) followed by the new ids.
	// Each merged row's block-max metadata is rebuilt alongside it — the same
	// O(row) cost class as materializing the row — so threshold-aware scans
	// stay available on extended snapshots.
	for a, ids := range pendAct {
		old := prev.ImplsOfAction(a)
		row := make([]ImplID, 0, len(old)+len(ids))
		merged := append(append(row, old...), ids...)
		nl.ovActPost[a] = merged
		var blk PostingBlocks
		blk.Last, blk.MinLen, blk.MaxLen = nl.appendRowBlocks(merged, nil, nil, nil)
		nl.ovBlocks[a] = blk
	}

	// G-GI-idx rows and per-goal walk costs.
	for g, ids := range pendGoal {
		old := prev.ImplsOfGoal(g)
		row := make([]ImplID, 0, len(old)+len(ids))
		nl.ovGoalPost[g] = append(append(row, old...), ids...)
		nl.ovGoalSlots[g] = int32(prev.GoalWalkCost(g)) + pendSlots[g]
	}

	// AG-idx rows: sorted merge of the old (goal, count) row with the
	// pending per-goal increments.
	for a, delta := range pendAG {
		oldG, oldC := prev.GoalsOfAction(a)
		dg := make([]GoalID, 0, len(delta))
		for g := range delta {
			dg = append(dg, g)
		}
		dg = intset.FromUnsorted(dg) // map keys: distinct already, just sorts
		mg := make([]GoalID, 0, len(oldG)+len(dg))
		mc := make([]int32, 0, len(oldG)+len(dg))
		i, j := 0, 0
		for i < len(oldG) && j < len(dg) {
			switch {
			case oldG[i] < dg[j]:
				mg = append(mg, oldG[i])
				mc = append(mc, oldC[i])
				i++
			case oldG[i] > dg[j]:
				mg = append(mg, dg[j])
				mc = append(mc, delta[dg[j]])
				j++
			default:
				mg = append(mg, oldG[i])
				mc = append(mc, oldC[i]+delta[dg[j]])
				i, j = i+1, j+1
			}
		}
		for ; i < len(oldG); i++ {
			mg = append(mg, oldG[i])
			mc = append(mc, oldC[i])
		}
		for ; j < len(dg); j++ {
			mg = append(mg, dg[j])
			mc = append(mc, delta[dg[j]])
		}
		nl.ovAgGoal[a], nl.ovAgCnt[a] = mg, mc
	}

	// GA-idx rows: the transpose merge — old (action, count) row of each
	// touched goal merged with the pending per-action increments.
	for g, delta := range pendGA {
		oldA, oldC := prev.ActionsOfGoal(g)
		da := make([]ActionID, 0, len(delta))
		for a := range delta {
			da = append(da, a)
		}
		da = intset.FromUnsorted(da) // map keys: distinct already, just sorts
		ma := make([]ActionID, 0, len(oldA)+len(da))
		mc := make([]int32, 0, len(oldA)+len(da))
		i, j := 0, 0
		for i < len(oldA) && j < len(da) {
			switch {
			case oldA[i] < da[j]:
				ma = append(ma, oldA[i])
				mc = append(mc, oldC[i])
				i++
			case oldA[i] > da[j]:
				ma = append(ma, da[j])
				mc = append(mc, delta[da[j]])
				j++
			default:
				ma = append(ma, oldA[i])
				mc = append(mc, oldC[i]+delta[da[j]])
				i, j = i+1, j+1
			}
		}
		for ; i < len(oldA); i++ {
			ma = append(ma, oldA[i])
			mc = append(mc, oldC[i])
		}
		for ; j < len(da); j++ {
			ma = append(ma, da[j])
			mc = append(mc, delta[da[j]])
		}
		nl.ovGaAct[g], nl.ovGaCnt[g] = ma, mc
	}
	return nl
}
