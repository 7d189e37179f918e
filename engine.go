package goalrec

import (
	"context"
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

	// gen numbers the library lineage: it stays fixed across appends and
	// epoch restores (posting rows only ever extend, so materialized
	// CounterViews can be carried forward by delta replay) and increments on
	// every Swap (ids are reassigned wholesale, so views must rebuild).
	gen uint64

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
	gen uint64 // lineage generation, see Engine.gen

	mu   sync.Mutex
	recs map[string]Recommender
}

func newEngineState(lib *Library, gen uint64) *engineState {
	return &engineState{lib: lib, gen: gen, recs: make(map[string]Recommender)}
}

// NewEngine returns an empty Engine at epoch 0.
func NewEngine() *Engine {
	e := &Engine{vocab: core.NewVocabulary(), dyn: core.NewDynamicLibrary()}
	e.state.Store(newEngineState(&Library{lib: e.dyn.Snapshot(), vocab: e.vocab}, 0))
	return e
}

// NewEngineFromLibrary returns an Engine seeded with lib, published as the
// first epoch. The engine adopts lib's vocabulary: later ingests intern new
// names into it, which is safe for concurrent readers of older snapshots.
func NewEngineFromLibrary(lib *Library) *Engine {
	e := &Engine{vocab: lib.vocab, dyn: core.NewDynamicLibrary()}
	stamped := e.dyn.Swap(lib.lib)
	e.state.Store(newEngineState(&Library{lib: stamped, vocab: lib.vocab, side: lib.side}, 0))
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
	e.state.Store(newEngineState(lib, e.gen))
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
	e.gen++
	e.state.Store(newEngineState(nl, e.gen))
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
	e.state.Store(newEngineState(&Library{lib: e.dyn.Snapshot(), vocab: lib.vocab}, 0))
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
	e.state.Store(newEngineState(&Library{lib: e.dyn.Snapshot(), vocab: e.vocab}, e.gen))
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
// publish so no cached state outlives its library. For a handle that
// follows epochs instead, use LiveRecommender.
func (e *Engine) Recommender(s Strategy, opts ...RecommenderOption) (Recommender, error) {
	return e.recommenderFor(e.state.Load(), s, opts)
}

// recommenderFor returns (building on first use) st's shared recommender
// for the strategy/options pair.
func (e *Engine) recommenderFor(st *engineState, s Strategy, opts []RecommenderOption) (Recommender, error) {
	o := resolveRecOptions(opts)
	if o.err != nil {
		return nil, o.err
	}
	key := o.sharingKey(s)
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

// LiveRecommender returns a recommender that follows the engine's epochs:
// every Recommend/RecommendContext call resolves the snapshot current at
// that moment, and a RecommendBatch resolves one snapshot for the whole
// batch. Because the per-epoch recommender sets are dropped on publish,
// the cached path (WithCache) can never serve rankings from a superseded
// library — an ingested implementation is visible on the very next call.
// Invalid options are reported here, at construction.
func (e *Engine) LiveRecommender(s Strategy, opts ...RecommenderOption) (Recommender, error) {
	if _, err := e.recommenderFor(e.state.Load(), s, opts); err != nil {
		return nil, err
	}
	return &liveRecommender{e: e, s: s, opts: opts}, nil
}

// liveRecommender resolves the engine's current epoch on every call. The
// options were validated at construction, so resolution cannot fail later:
// the epoch's recommender is rebuilt from the same option list.
type liveRecommender struct {
	e    *Engine
	s    Strategy
	opts []RecommenderOption
}

// current returns the recommender of the engine's current epoch.
func (l *liveRecommender) current() Recommender {
	rec, err := l.e.recommenderFor(l.e.state.Load(), l.s, l.opts)
	if err != nil {
		// Unreachable: the options were validated at construction and the
		// strategy constant cannot change.
		panic(err)
	}
	return rec
}

// Name implements Recommender.
func (l *liveRecommender) Name() string { return l.current().Name() }

// Recommend implements Recommender against the current epoch.
func (l *liveRecommender) Recommend(activity []string, k int) []Recommendation {
	return l.current().Recommend(activity, k)
}

// RecommendContext implements Recommender against the current epoch.
func (l *liveRecommender) RecommendContext(ctx context.Context, activity []string, k int) ([]Recommendation, error) {
	return l.current().RecommendContext(ctx, activity, k)
}

// RecommendBatch implements Recommender: the epoch is resolved once, so
// every activity of the batch scores against the same snapshot.
func (l *liveRecommender) RecommendBatch(ctx context.Context, activities [][]string, k int) []BatchResult {
	return l.current().RecommendBatch(ctx, activities, k)
}
