package goalrec

import (
	"context"
	"errors"
	"fmt"

	"goalrec/internal/core"
	"goalrec/internal/strategy"
	"goalrec/internal/userstore"
)

// ErrUnknownUser reports a query or delete for a user id the store has never
// seen (or has deleted).
var ErrUnknownUser = errors.New("goalrec: unknown user")

// ErrTooManyUsers re-exports the user-store capacity error for callers that
// should not import internal packages. Match with errors.Is.
var ErrTooManyUsers = userstore.ErrTooManyUsers

// UserStoreOptions configures a per-user activity store. Zero values select
// the defaults (see internal/userstore).
type UserStoreOptions struct {
	// MaxUsers caps tracked users; appends for new users beyond it fail
	// with ErrTooManyUsers.
	MaxUsers int
	// MaxViews caps concurrently materialized counter views (LRU-bounded).
	MaxViews int
	// Shards is the map shard count.
	Shards int
}

// userJournal persists user-store mutations write-ahead: a Store installs
// itself here so restart replay reproduces user histories bit-identically.
type userJournal interface {
	logUserAppend(id string, names []string) error
	logUserDelete(id string) error
}

// UserStore serves per-user recommendation state on top of an Engine: the
// server owns each user's evolving activity history (deduplicated action
// names — names, not ids, survive snapshot swaps) and a materialized
// strategy.CounterView per recently active user. An append delta-updates the
// view along one posting row; a query scores the materialized counters
// directly, bit-identical to a from-scratch Recommend over the same history.
//
// Views are epoch- and lineage-stamped. Same-lineage snapshot extensions
// (live ingest) are absorbed by replaying only the appended posting-row
// tails; a Swap changes the lineage generation and forces a rebuild, so a
// query can never score stale counters against new postings.
type UserStore struct {
	e       *Engine
	users   *userstore.Store
	journal userJournal
}

// NewUserStore returns a user store over e with no persistence. Stores
// opened from disk get a WAL-backed one from Store.Users instead.
func NewUserStore(e *Engine, o UserStoreOptions) *UserStore {
	return &UserStore{
		e: e,
		users: userstore.New(userstore.Options{
			MaxUsers: o.MaxUsers,
			MaxViews: o.MaxViews,
			Shards:   o.Shards,
		}),
	}
}

// setJournal attaches the write-ahead journal (a Store).
func (us *UserStore) setJournal(j userJournal) { us.journal = j }

// Len returns the tracked user count.
func (us *UserStore) Len() int { return us.users.Len() }

// Stats returns the store's counters (materialized hits vs cold builds,
// advances, rebuilds, evictions, ...).
func (us *UserStore) Stats() userstore.Stats { return us.users.Stats() }

// History returns the user's deduplicated activity history in append order,
// or ErrUnknownUser.
func (us *UserStore) History(id string) ([]string, error) {
	u := us.users.Get(id)
	if u == nil {
		return nil, ErrUnknownUser
	}
	u.Mu.Lock()
	defer u.Mu.Unlock()
	if u.Gone {
		return nil, ErrUnknownUser
	}
	return append([]string(nil), u.Names...), nil
}

// Append adds actions to the user's history, creating the user on first
// sight, and returns how many were new (duplicates are dropped — a history
// is a set, exactly like a request-shipped activity). The post-dedup suffix
// is journaled write-ahead when a Store is attached; a journal failure
// rejects the whole append. A materialized view absorbs the new actions
// along their posting rows instead of rescanning the history.
func (us *UserStore) Append(id string, actions []string) (int, error) {
	if id == "" {
		return 0, errors.New("goalrec: empty user id")
	}
	for _, a := range actions {
		if a == "" {
			return 0, fmt.Errorf("goalrec: user %q append has an empty action name", id)
		}
	}
	for {
		u, err := us.users.GetOrCreate(id)
		if err != nil {
			return 0, err
		}
		u.Mu.Lock()
		if u.Gone {
			// Concurrently deleted between lookup and lock: re-fetch so the
			// append lands on (and journals for) a live entry.
			u.Mu.Unlock()
			continue
		}
		n, err := us.appendLocked(u, actions)
		u.Mu.Unlock()
		if n > 0 {
			us.users.NoteAppends(n)
			us.users.Rebalance()
		}
		return n, err
	}
}

// appendLocked journals and applies one append under u.Mu.
func (us *UserStore) appendLocked(u *userstore.User, actions []string) (int, error) {
	// Pre-compute the post-dedup suffix so it can be journaled before any
	// state changes (append-before-apply, like engine ingests).
	added := make([]string, 0, len(actions))
	for _, a := range actions {
		if u.HasName(a) || containsString(added, a) {
			continue
		}
		added = append(added, a)
	}
	if len(added) == 0 {
		return 0, nil
	}
	if us.journal != nil {
		if err := us.journal.logUserAppend(u.ID, added); err != nil {
			return 0, fmt.Errorf("%w: %w", ErrJournal, err)
		}
	}
	u.AppendNames(added)
	us.applyToView(u, added)
	return len(added), nil
}

// applyToView folds freshly appended names into a live materialized view —
// one posting-row walk per name against the view's own snapshot. Names the
// view's snapshot cannot resolve are parked in Unresolved and re-applied
// when the view advances to an epoch that knows them. Stale-lineage views
// are left alone; the next query rebuilds them.
func (us *UserStore) applyToView(u *userstore.User, added []string) {
	if u.View == nil {
		return
	}
	st := us.e.state.Load()
	if u.ViewGen != st.gen {
		return
	}
	vlib := u.View.Lib()
	vocab := st.lib.vocab
	for _, name := range added {
		if aid, ok := vocab.Actions.Lookup(name); ok && int(aid) < vlib.NumActions() {
			u.View.Apply(core.ActionID(aid))
		} else {
			u.Unresolved = append(u.Unresolved, name)
		}
	}
	us.users.MarkMaterialized(u)
}

func containsString(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// Delete removes the user and its view, journaling the delete. It returns
// ErrUnknownUser when the id is not tracked.
func (us *UserStore) Delete(id string) error {
	if us.users.Get(id) == nil {
		return ErrUnknownUser
	}
	if us.journal != nil {
		if err := us.journal.logUserDelete(id); err != nil {
			return fmt.Errorf("%w: %w", ErrJournal, err)
		}
	}
	if !us.users.Delete(id) {
		return ErrUnknownUser
	}
	return nil
}

// UserRecommendResult is one user query's outcome: the epoch it was answered
// from, the ranking, and the history names that epoch cannot resolve
// (mirroring Library.UnknownActions for request-shipped activities).
type UserRecommendResult struct {
	Epoch           uint64
	Recommendations []Recommendation
	UnknownActions  []string
}

// Recommend scores the user's materialized view with the given strategy and
// returns up to k recommendations. The engine state is loaded exactly once
// per query: the view is validated — hit, same-lineage delta advance, or
// rebuild after a swap — against that one snapshot, then scored against
// recommenders built over the same snapshot, so a racing Swap can never pair
// stale counters with new postings. The ranking is bit-identical to a
// from-scratch Recommend over the user's history at the same epoch.
func (us *UserStore) Recommend(ctx context.Context, id string, s Strategy, k int, opts ...RecommenderOption) (UserRecommendResult, error) {
	u := us.users.Get(id)
	if u == nil {
		return UserRecommendResult{}, ErrUnknownUser
	}
	st := us.e.state.Load()
	res := UserRecommendResult{Epoch: st.lib.Epoch()}
	rec, err := st.recommender(s, opts)
	if err != nil {
		return res, err
	}
	named, ok := rec.(*namedRecommender)
	if !ok {
		return res, fmt.Errorf("goalrec: strategy %q cannot score materialized views", s)
	}

	u.Mu.Lock()
	if u.Gone {
		u.Mu.Unlock()
		return res, ErrUnknownUser
	}
	us.ensureViewLocked(u, st)
	scored, err := strategy.RecommendView(ctx, named.rec, u.View, k)
	if len(u.Unresolved) > 0 {
		res.UnknownActions = append([]string(nil), u.Unresolved...)
	}
	u.Mu.Unlock()
	us.users.Rebalance()

	res.Recommendations = make([]Recommendation, len(scored))
	for i, sa := range scored {
		res.Recommendations[i] = Recommendation{Action: st.lib.vocab.ActionName(sa.Action), Score: sa.Score}
	}
	if err != nil {
		return res, fmt.Errorf("goalrec: %w", err)
	}
	return res, nil
}

// ensureViewLocked makes u.View valid for st: a cold build when absent, a
// rebuild when the lineage generation changed (Swap reassigns ids), a delta
// advance when the same lineage grew (posting rows only ever extend), or a
// plain LRU touch on a hit. Callers hold u.Mu.
func (us *UserStore) ensureViewLocked(u *userstore.User, st *engineState) {
	epoch := st.lib.Epoch()
	switch {
	case u.View == nil:
		ids, unresolved := st.lib.resolveSplit(u.Names)
		u.View = strategy.NewCounterView(st.lib.lib, ids)
		u.Unresolved = unresolved
		us.users.NoteCold()
	case u.ViewGen != st.gen || u.ViewEpoch > epoch:
		// New lineage (or an epoch regression, which only a lineage change
		// can produce): resolved ids are meaningless now, rebuild.
		ids, unresolved := st.lib.resolveSplit(u.Names)
		u.View.Rebuild(st.lib.lib, ids)
		u.Unresolved = unresolved
		us.users.NoteRebuild()
	case u.ViewEpoch < epoch:
		// Same lineage, newer snapshot: replay only the appended posting-row
		// tails, then retry the names that were unresolvable before (vocab
		// ids are stable within a lineage, so newly covered names resolve to
		// fresh ids past the view's old action horizon).
		u.View.AdvanceTo(st.lib.lib)
		if len(u.Unresolved) > 0 {
			still := u.Unresolved[:0]
			for _, name := range u.Unresolved {
				if aid, ok := st.lib.vocab.Actions.Lookup(name); ok && int(aid) < st.lib.lib.NumActions() {
					u.View.Apply(core.ActionID(aid))
				} else {
					still = append(still, name)
				}
			}
			u.Unresolved = still
		}
		us.users.NoteAdvance()
	default:
		us.users.NoteHit()
		us.users.Touch(u)
		return
	}
	u.ViewGen, u.ViewEpoch = st.gen, epoch
	us.users.MarkMaterialized(u)
}

// applyReplayAppend reapplies one journaled append during WAL recovery —
// no journaling, no view work (views rematerialize lazily on first query).
func (us *UserStore) applyReplayAppend(id string, names []string) error {
	u, err := us.users.GetOrCreate(id)
	if err != nil {
		return err
	}
	u.Mu.Lock()
	u.AppendNames(names)
	u.Mu.Unlock()
	return nil
}

// applyReplayDelete reapplies one journaled delete during WAL recovery.
func (us *UserStore) applyReplayDelete(id string) {
	us.users.Delete(id)
}
