package goalrec

import (
	"context"
	"errors"
	"fmt"

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
// names — names, not ids, survive snapshot swaps), at most
// MaxActivityActions of them. A query scores the history exactly as a
// shipped activity is scored, against the engine's current epoch, so a user
// holds no scoring state between queries.
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
			Shards:   o.Shards,
		}),
	}
}

// setJournal attaches the write-ahead journal (a Store).
func (us *UserStore) setJournal(j userJournal) { us.journal = j }

// Len returns the tracked user count.
func (us *UserStore) Len() int { return us.users.Len() }

// Stats returns the store's counters (users, appends, deletes, refusals at
// the user cap).
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
// is a set, exactly like a request-shipped activity). An append that would
// take the history past MaxActivityActions is refused whole. The post-dedup
// suffix is journaled write-ahead when a Store is attached; a journal
// failure rejects the whole append.
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
	if n := len(u.Names) + len(added); n > MaxActivityActions {
		return 0, fmt.Errorf("goalrec: user %q history would hold %d actions (limit %d)", u.ID, n, MaxActivityActions)
	}
	if us.journal != nil {
		if err := us.journal.logUserAppend(u.ID, added); err != nil {
			return 0, fmt.Errorf("%w: %w", ErrJournal, err)
		}
	}
	u.AppendNames(added)
	return len(added), nil
}

func containsString(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// Delete removes the user and its history, journaling the delete. It returns
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

// Recommend scores the user's history with the given strategy and returns
// up to k recommendations. It copies the history under the user's lock and
// then answers it as a shipped activity is answered: one load of the engine
// state gives the epoch, the shared recommender and the unknown names, so
// the ranking is the from-scratch Recommend over the history at that epoch.
func (us *UserStore) Recommend(ctx context.Context, id string, s Strategy, k int, opts ...RecommenderOption) (UserRecommendResult, error) {
	history, err := us.History(id)
	if err != nil {
		return UserRecommendResult{}, err
	}
	lib, rec, err := us.e.Current(s, opts...)
	res := UserRecommendResult{Epoch: lib.Epoch()}
	if err != nil {
		return res, err
	}
	res.Recommendations, err = rec.RecommendContext(ctx, history, k)
	res.UnknownActions = lib.UnknownActions(history)
	return res, err
}

// applyReplayAppend reapplies one journaled append during WAL recovery: no
// journaling, and no history bound, because a replayed record is durable.
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
