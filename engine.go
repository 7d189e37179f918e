package goalrec

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"goalrec/internal/core"
)

// Engine serves an evolving goal-implementation library from atomically
// swappable, epoch-numbered snapshots: the deployment shape of a recommender
// whose library keeps growing (new how-to stories, new recipes) while
// queries keep flowing.
//
// Writers — AddImplementation, AddImplementations, Swap — are serialized and
// publish a fresh immutable *Library at the next epoch. Readers call
// Snapshot, a wait-free atomic load, and can hold the result indefinitely:
// snapshots are never mutated, so recommenders built over one keep returning
// that epoch's results bit-identically. Appends extend the previous epoch's
// indexes incrementally (see core.DynamicLibrary), so publishing a small
// batch into a large library is sub-linear in library size.
//
// The action and goal vocabulary grows monotonically across epochs of one
// lineage and is shared by all its snapshots; Swap adopts the replacement
// library's vocabulary wholesale.
type Engine struct {
	mu    sync.Mutex // serializes writers
	vocab *core.Vocabulary
	dyn   *core.DynamicLibrary
	state atomic.Pointer[engineState]

	// journal, when non-nil, receives every publishing write before it is
	// applied (write-ahead). A Store attaches itself here; the zero engine
	// journals nothing.
	journal engineJournal
}

// engineJournal is the write-ahead hook a Store installs on an Engine: the
// engine calls logBatch under its writer lock before applying an ingest
// batch, and logSwap after a wholesale swap has been published.
type engineJournal interface {
	logBatch(epoch uint64, impls []Implementation) error
	logSwap(lib *Library)
}

// ErrJournal marks an ingest rejected because its write-ahead journal append
// failed: nothing was applied, and the store that owns the journal has
// latched the failure (see Store). Match with errors.Is.
var ErrJournal = errors.New("goalrec: journal append failed")

// engineState bundles one epoch's snapshot with its lazily built recommender
// set, keyed by strategy plus resolved options. Swapping the whole state
// pointer at publish time is what invalidates cached recommenders (and
// their strategy.NewCached entries) by epoch instead of letting them leak
// stale scores: every WithCache LRU lives in this map and dies with it.
type engineState struct {
	lib *Library

	mu   sync.Mutex
	recs map[recKey]Recommender
}

// recKey identifies one shared recommender of an epoch: two option lists
// that resolve identically share one instance. The options' err is always
// nil here — invalid options never reach the map.
type recKey struct {
	s Strategy
	o recOptions
}

func newEngineState(lib *Library) *engineState {
	return &engineState{lib: lib, recs: make(map[recKey]Recommender)}
}

// NewEngine returns an empty Engine at epoch 0.
func NewEngine() *Engine {
	e := &Engine{vocab: core.NewVocabulary(), dyn: core.NewDynamicLibrary()}
	e.state.Store(newEngineState(&Library{lib: e.dyn.Snapshot(), vocab: e.vocab}))
	return e
}

// NewEngineFromLibrary returns an Engine seeded with lib, published as the
// first epoch. The engine adopts lib's vocabulary: later ingests intern new
// names into it, which is safe for concurrent readers of older snapshots.
func NewEngineFromLibrary(lib *Library) *Engine {
	e := &Engine{vocab: lib.vocab, dyn: core.NewDynamicLibrary()}
	stamped := e.dyn.Swap(lib.lib)
	e.state.Store(newEngineState(&Library{lib: stamped, vocab: lib.vocab, side: lib.side}))
	return e
}

// Snapshot returns the current epoch's immutable library. It is wait-free
// and safe to call from any number of goroutines; the result remains valid
// (and epoch-consistent) for as long as the caller holds it.
func (e *Engine) Snapshot() *Library { return e.state.Load().lib }

// Epoch returns the current epoch number.
func (e *Engine) Epoch() uint64 { return e.Snapshot().Epoch() }

// Len returns the number of implementations in the current epoch.
func (e *Engine) Len() int { return e.Snapshot().NumImplementations() }

// AddImplementation ingests one implementation and publishes the next
// epoch. For sustained ingest prefer AddImplementations, which publishes
// once per batch.
func (e *Engine) AddImplementation(goal string, actions ...string) error {
	_, err := e.AddImplementations([]Implementation{{Goal: goal, Actions: actions}})
	return err
}

// AddImplementations ingests a batch, stopping at the first invalid
// implementation, and publishes whatever was added as the next epoch. It
// returns the number added; on error the earlier valid implementations of
// the batch are still published (mirroring core.DynamicLibrary semantics).
//
// When a journal is attached (Store), the batch's valid prefix is appended
// to it — at the epoch the publish will carry — before anything is applied.
// A journal failure rejects the whole batch with an error matching
// ErrJournal: nothing is published that the log does not hold.
func (e *Engine) AddImplementations(impls []Implementation) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	valid := 0
	var firstErr error
	for _, impl := range impls {
		if err := validateImplementation(impl); err != nil {
			firstErr = err
			break
		}
		valid++
	}
	if valid == 0 {
		return 0, firstErr
	}
	if e.journal != nil {
		if err := e.journal.logBatch(e.dyn.Epoch()+1, impls[:valid]); err != nil {
			return 0, fmt.Errorf("%w: %w", ErrJournal, err)
		}
	}
	added := 0
	for _, impl := range impls[:valid] {
		if err := e.addLocked(impl.Goal, impl.Actions); err != nil {
			// Unreachable after validation; surface it over the shape error.
			firstErr = err
			break
		}
		added++
	}
	if added > 0 {
		e.publishLocked()
	}
	return added, firstErr
}

// validateImplementation performs addLocked's full error surface without
// mutating anything, so a batch can be journaled before it is applied. The
// error texts match addLocked's exactly.
func validateImplementation(impl Implementation) error {
	if impl.Goal == "" {
		return errors.New("goalrec: empty goal name")
	}
	for _, a := range impl.Actions {
		if a == "" {
			return fmt.Errorf("goalrec: implementation of %q has an empty action name", impl.Goal)
		}
	}
	if len(impl.Actions) == 0 {
		return fmt.Errorf("goalrec: adding implementation of %q: %w", impl.Goal, core.ErrEmptyActivity)
	}
	return nil
}

func (e *Engine) addLocked(goal string, actions []string) error {
	if goal == "" {
		return errors.New("goalrec: empty goal name")
	}
	ids := make([]core.ActionID, len(actions))
	for i, a := range actions {
		if a == "" {
			return fmt.Errorf("goalrec: implementation of %q has an empty action name", goal)
		}
		ids[i] = core.ActionID(e.vocab.Actions.Intern(a))
	}
	g := core.GoalID(e.vocab.Goals.Intern(goal))
	if _, err := e.dyn.Add(g, ids); err != nil {
		return fmt.Errorf("goalrec: adding implementation of %q: %w", goal, err)
	}
	return nil
}

// publishLocked snapshots the dynamic core and installs it as the current
// epoch with a fresh (empty) recommender set.
func (e *Engine) publishLocked() *Library {
	lib := &Library{lib: e.dyn.Snapshot(), vocab: e.vocab}
	e.state.Store(newEngineState(lib))
	return lib
}

// Swap replaces the engine's library wholesale with lib — typically a
// freshly re-loaded library file — publishing it as the next epoch. Readers
// holding older snapshots are unaffected. It returns the published snapshot,
// stamped with its new epoch.
func (e *Engine) Swap(lib *Library) *Library {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.vocab = lib.vocab
	stamped := e.dyn.Swap(lib.lib)
	nl := &Library{lib: stamped, vocab: lib.vocab, side: lib.side}
	e.state.Store(newEngineState(nl))
	if e.journal != nil {
		// A swap supersedes every journaled batch: the store persists the new
		// epoch as a full snapshot and resets the log.
		e.journal.logSwap(nl)
	}
	return nl
}

// newEngineAdopting seeds an Engine from a persisted snapshot, preserving
// the snapshot's epoch so the lineage resumes where the writing process
// stopped (unlike NewEngineFromLibrary, which starts a new lineage at
// epoch 1).
func newEngineAdopting(lib *Library) *Engine {
	e := &Engine{vocab: lib.vocab, dyn: core.NewDynamicLibrary()}
	e.dyn.Swap(lib.lib)
	if ep := lib.Epoch(); ep > 1 {
		// Swap stamped epoch 1; only ever move forward.
		if err := e.dyn.RestoreEpoch(ep); err != nil {
			panic(err) // unreachable: 1 < ep
		}
	}
	e.state.Store(newEngineState(&Library{lib: e.dyn.Snapshot(), vocab: lib.vocab}))
	return e
}

// restoreEpoch forces the engine's epoch forward to ep and republishes, so a
// WAL replay lands on exactly the epoch the log recorded even if some
// batches were already covered by the base snapshot.
func (e *Engine) restoreEpoch(ep uint64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dyn.Epoch() == ep {
		return nil
	}
	if err := e.dyn.RestoreEpoch(ep); err != nil {
		return err
	}
	e.state.Store(newEngineState(&Library{lib: e.dyn.Snapshot(), vocab: e.vocab}))
	return nil
}

// setJournal attaches (or detaches, with nil) the write-ahead journal.
func (e *Engine) setJournal(j engineJournal) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.journal = j
}

// Recommender returns a recommender over the current epoch's snapshot.
// Calls whose options resolve identically share one instance from the
// epoch's recommender set (recommenders are deterministic and concurrent-
// safe, so sharing — including a shared WithCache LRU — is sound). The
// result is bound to its snapshot: it stays consistent (and valid) after
// later epochs are published, and the per-epoch set is dropped wholesale on
// publish so no cached state outlives its library.
func (e *Engine) Recommender(s Strategy, opts ...RecommenderOption) (Recommender, error) {
	return e.state.Load().recommender(s, opts)
}

// Current returns the current epoch's snapshot together with its shared
// recommender for s and opts (see Recommender), both from one load of the
// published state: the recommender scores exactly the returned snapshot, so
// a caller reporting the snapshot's epoch or unknown actions names the epoch
// it ranked against, however many are published meanwhile. A front end that
// fetches the pair per request serves every ingest and swap on the next
// request, with no copy of the engine state of its own.
func (e *Engine) Current(s Strategy, opts ...RecommenderOption) (*Library, Recommender, error) {
	st := e.state.Load()
	rec, err := st.recommender(s, opts)
	return st.lib, rec, err
}

// recommender returns (building on first use) the state's shared recommender
// for the strategy/options pair.
func (st *engineState) recommender(s Strategy, opts []RecommenderOption) (Recommender, error) {
	o := resolveRecOptions(opts)
	if o.err != nil {
		return nil, o.err
	}
	key := recKey{s, o}
	st.mu.Lock()
	defer st.mu.Unlock()
	if rec, ok := st.recs[key]; ok {
		return rec, nil
	}
	rec, err := st.lib.Recommender(s, opts...)
	if err != nil {
		return nil, err
	}
	st.recs[key] = rec
	return rec, nil
}
