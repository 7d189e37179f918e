package core

import (
	"fmt"
	"slices"
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
// Snapshots are built incrementally, and the invariant is that the heap
// holds the delta, not the library. The base — the flat library a Swap
// adopted or the last compaction built — is immutable and stays where it is
// (a snapshot mapping, a loader's arrays): it is never copied, every
// snapshot since shares it. The store owns only an append-only tail of the
// implementation CSR; every snapshot views a full-slice (len == cap) prefix
// of it, so later appends — which only ever write beyond every snapshot's
// length — can never alias memory a reader sees. The posting indexes
// (A-GI-idx, G-GI-idx, GA-idx) of the base are shared wholesale, with rows
// overlaid for just the touched actions and goals (overlay.go): an action's
// overlay row holds only the ids appended since the base, read after the
// base row as a second sorted run (Library.ActionRows), and a goal's holds
// its merged G-GI and GA rows, a handful of entries each. Snapshotting an
// append into a million-implementation library therefore costs the touched
// goal rows, the touched actions' appended ids and the overlay pages holding
// them, not a full index derivation, not a copy of a base row and not the
// backlog of earlier appends; once the tail reaches max(1024, base/8), the
// snapshot compacts base and tail into a fresh flat library — the one place
// the implementation CSR is copied, where every index is rebuilt anyway —
// keeping overlay memory bounded and amortizing rebuild cost over the
// appends that forced it.
//
// Old snapshots stay valid indefinitely and keep returning their epoch's
// results bit-identically; they are never mutated, only superseded.
type DynamicLibrary struct {
	mu sync.Mutex

	// Owned append-only tail of the implementation CSR: the implementations
	// added since cur's base arrays were adopted or built. tailOff counts
	// from 0 into tailActs.
	tailGoal []GoalID
	tailOff  []int32
	tailActs []ActionID

	numActions int // id-space high-water marks over appended impls
	numGoals   int

	cur   *Library // latest snapshot; nil until first use. Its flat arrays are the base.
	epoch uint64

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
	if d.cur == nil {
		d.cur = d.buildFlatLocked()
	}
}

// lenLocked returns the number of implementations ingested so far.
func (d *DynamicLibrary) lenLocked() int {
	n := len(d.tailGoal)
	if d.cur != nil {
		n += len(d.cur.implGoal)
	}
	return n
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
	// Compaction folds base and tail into one CSR, so both count.
	acts, err := appendRow(d.tailActs, len(d.cur.implActs)+len(d.tailActs), goal, actions)
	if err != nil {
		return NoImpl, err
	}
	id := ImplID(d.lenLocked())
	d.tailGoal = append(d.tailGoal, goal)
	d.tailActs = acts
	d.tailOff = append(d.tailOff, int32(len(acts)))
	d.numGoals = max(d.numGoals, int(goal)+1)
	d.numActions = max(d.numActions, int(acts[len(acts)-1])+1)
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
	return d.lenLocked()
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
	if d.cur.NumImplementations() == d.lenLocked() {
		return d.cur
	}
	d.epoch++
	threshold := d.compactMin
	if threshold <= 0 {
		threshold = defaultCompactMin
	}
	threshold = max(threshold, len(d.cur.implGoal)/8)
	if len(d.tailGoal) >= threshold {
		d.cur = d.buildFlatLocked()
	} else {
		d.cur = d.extendLocked()
	}
	return d.cur
}

// Swap replaces the store's contents with lib, which becomes the next
// epoch's snapshot. lib's flat arrays — heap or a memory-mapped snapshot —
// are adopted as the lineage's base where they are, shared and never
// written; if lib is itself an extended snapshot, only its tail is copied, so
// that this lineage's appends continue in arrays of its own. Swap is
// therefore O(1) for a flat library of any size. lib itself is not mutated.
// It returns the stamped snapshot.
func (d *DynamicLibrary) Swap(lib *Library) *Library {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tailGoal = slices.Clone(lib.tailGoal)
	d.tailOff = slices.Clone(lib.tailOff)
	if len(d.tailOff) == 0 {
		d.tailOff = []int32{0}
	}
	d.tailActs = slices.Clone(lib.tailActs)
	d.numActions = lib.numActions
	d.numGoals = lib.numGoals
	d.epoch++
	d.cur = lib.WithEpoch(d.epoch)
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
	d.cur = d.cur.WithEpoch(e)
	return nil
}

// buildFlatLocked derives a fully indexed (flat) library over everything
// appended so far. It folds the base and the tail into fresh contiguous
// arrays, which become the next base, and starts an empty tail: older
// snapshots keep viewing the arrays they were published over.
func (d *DynamicLibrary) buildFlatLocked() *Library {
	var ext Library // the base with the whole tail on it
	if d.cur != nil {
		ext = *d.cur
	}
	ext.tailGoal, ext.tailOff, ext.tailActs = d.tailGoal, d.tailOff, d.tailActs
	implOff := make([]int32, 1, ext.NumImplementations()+1)
	if nb := len(ext.implGoal); nb > 0 {
		implOff = append(implOff, ext.implOff[1:nb+1]...)
	}
	lib := &Library{
		implGoal:   slices.Concat(ext.implGoal, ext.tailGoal),
		implOff:    append(implOff, ext.flatTailOff()...),
		implActs:   slices.Concat(ext.implActs, ext.tailActs),
		numActions: d.numActions,
		numGoals:   d.numGoals,
		epoch:      d.epoch,
	}
	lib.buildIndexes()
	d.tailGoal, d.tailOff, d.tailActs = nil, []int32{0}, nil
	return lib
}

// extendLocked builds the next snapshot from the previous one plus the
// pending appends: the base is shared, the tail grows by prefix sharing, and
// only the index rows of touched actions/goals are re-materialized into the
// copy-on-write overlay. Rows append the new implementation ids — which are
// strictly larger than every previous id — after the old ones, so an action's
// base and tail runs, and a goal's merged rows, read bit-identically to a
// full rebuild's rows.
func (d *DynamicLibrary) extendLocked() *Library {
	prev := d.cur
	lo := prev.NumImplementations()
	hi := d.lenLocked()
	t := len(d.tailGoal)
	slots := len(d.tailActs)

	nl := *prev // the base arrays and their indexes carry over
	// An extension is no longer the image of the file its base was mapped
	// from.
	nl.checked = FileStamp{}
	nl.tailGoal = d.tailGoal[:t:t]
	nl.tailOff = d.tailOff[: t+1 : t+1]
	nl.tailActs = d.tailActs[:slots:slots]
	nl.numActions = d.numActions
	nl.numGoals = d.numGoals
	nl.epoch = d.epoch

	for p := lo; p < hi; p++ {
		nl.maxImplLen = max(nl.maxImplLen, int32(nl.ImplLen(ImplID(p))))
	}

	// Group the pending implementations by action and goal.
	pendAct := make(map[ActionID][]ImplID)
	pendGoal := make(map[GoalID][]ImplID)
	pendGA := make(map[GoalID]map[ActionID]int32)
	for p := lo; p < hi; p++ {
		id := ImplID(p)
		g := nl.Goal(id)
		acts := nl.implActions(id)
		pendGoal[g] = append(pendGoal[g], id)
		ga := pendGA[g]
		if ga == nil {
			ga = make(map[ActionID]int32)
			pendGA[g] = ga
		}
		for _, a := range acts {
			pendAct[a] = append(pendAct[a], id)
			ga[a]++
		}
	}

	// Action rows: the tail run is the previous one followed by the new
	// ids; the base run stays where it is.
	acts := prev.ovAct.extend(d.numActions)
	for a, ids := range pendAct {
		_, tail := prev.ActionRows(a)
		acts.set(int32(a), &actRow{post: slices.Concat(tail, ids)})
	}
	nl.ovAct = acts.ovTable

	// Goal rows: the G-GI-idx row and the GA-idx row — the transpose merge
	// of the goal's old (action, count) row, stored or assembled from its
	// implementations, with the pending per-action increments. The merged GA
	// row is kept only when the goal's implementations now share an action,
	// as buildIndexes keeps it.
	goals := prev.ovGoal.extend(d.numGoals)
	for g, ids := range pendGoal {
		r := &goalRow{post: slices.Concat(prev.ImplsOfGoal(g), ids)}
		oldA, oldC := prev.ActionsOfGoal(g)
		if acts, cnts := mergeCounts(oldA, oldC, pendGA[g]); sharesAction(cnts) {
			r.gaAct, r.gaCnt = acts, cnts
		}
		goals.set(int32(g), r)
	}
	nl.ovGoal = goals.ovTable
	return &nl
}

// mergeCounts merges a sorted (key, count) index row with per-key
// increments into a fresh row.
func mergeCounts[K intset.ID](oldK []K, oldC []int32, delta map[K]int32) ([]K, []int32) {
	dk := make([]K, 0, len(delta))
	for k := range delta {
		dk = append(dk, k)
	}
	dk = intset.FromUnsorted(dk) // map keys: distinct already, just sorts
	mk := make([]K, 0, len(oldK)+len(dk))
	mc := make([]int32, 0, len(oldK)+len(dk))
	i, j := 0, 0
	for i < len(oldK) && j < len(dk) {
		switch {
		case oldK[i] < dk[j]:
			mk = append(mk, oldK[i])
			mc = append(mc, oldC[i])
			i++
		case oldK[i] > dk[j]:
			mk = append(mk, dk[j])
			mc = append(mc, delta[dk[j]])
			j++
		default:
			mk = append(mk, oldK[i])
			mc = append(mc, oldC[i]+delta[dk[j]])
			i, j = i+1, j+1
		}
	}
	mk = append(mk, oldK[i:]...)
	mc = append(mc, oldC[i:]...)
	for ; j < len(dk); j++ {
		mk = append(mk, dk[j])
		mc = append(mc, delta[dk[j]])
	}
	return mk, mc
}
