package goalrec

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// ErrUnknownUser reports a query or delete for a user id the store has never
// seen (or has deleted).
var ErrUnknownUser = errors.New("goalrec: unknown user")

// ErrTooManyUsers reports an append for a new user beyond the store's user
// capacity (UserStoreOptions.MaxUsers). Match with errors.Is.
var ErrTooManyUsers = errors.New("userstore: user capacity exhausted")

// UserStoreOptions configures a per-user activity store. Zero values select
// the defaults.
type UserStoreOptions struct {
	// MaxUsers caps tracked users; appends for new users beyond it fail
	// with ErrTooManyUsers. ≤ 0 selects the default of 2^21.
	MaxUsers int
}

// UserStoreStats is a point-in-time snapshot of a UserStore's counters.
type UserStoreStats struct {
	Users   int64  `json:"users"`
	Appends uint64 `json:"appends"`  // actions appended (post-dedup)
	Deletes uint64 `json:"deletes"`  // users deleted
	TooMany uint64 `json:"too_many"` // inserts rejected by MaxUsers

	// Views and ViewBytes are always 0: a stored user holds no counter
	// state. They stay for the frozen benchmark, which still reads them.
	Views     int64 `json:"-"`
	ViewBytes int64 `json:"-"`
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
	e        *Engine
	journal  userJournal
	maxUsers int

	mu    sync.RWMutex // guards the map; each user's own state is under its mu
	users map[string]*user

	appends, deletes, tooMany atomic.Uint64
}

// user is one tracked user. Its fields past id are guarded by mu, under
// which every append and delete is journaled; a caller never holds two
// users' locks at once.
type user struct {
	id string
	mu sync.Mutex
	// names is the history in append order, the durable truth; sorted is
	// the same set ordered for O(log n) dedup.
	names, sorted []string
	// gone marks a deleted user: a caller that looked it up before the
	// delete re-fetches instead of mutating the orphan, whose journal
	// writes would land after the delete record and resurrect it on replay.
	gone bool
}

// NewUserStore returns a user store over e with no persistence. Stores
// opened from disk get a WAL-backed one from Store.Users instead.
func NewUserStore(e *Engine, o UserStoreOptions) *UserStore {
	maxUsers := o.MaxUsers
	if maxUsers <= 0 {
		maxUsers = 1 << 21
	}
	return &UserStore{e: e, maxUsers: maxUsers, users: make(map[string]*user)}
}

// setJournal attaches the write-ahead journal (a Store).
func (us *UserStore) setJournal(j userJournal) { us.journal = j }

// Len returns the tracked user count.
func (us *UserStore) Len() int {
	us.mu.RLock()
	defer us.mu.RUnlock()
	return len(us.users)
}

// Stats returns the store's counters (users, appends, deletes, refusals at
// the user cap).
func (us *UserStore) Stats() UserStoreStats {
	return UserStoreStats{
		Users:   int64(us.Len()),
		Appends: us.appends.Load(),
		Deletes: us.deletes.Load(),
		TooMany: us.tooMany.Load(),
	}
}

func (us *UserStore) get(id string) *user {
	us.mu.RLock()
	defer us.mu.RUnlock()
	return us.users[id]
}

// getOrCreate returns the user with the given id, creating it when absent;
// a creation beyond the user cap fails with ErrTooManyUsers.
func (us *UserStore) getOrCreate(id string) (*user, error) {
	if u := us.get(id); u != nil {
		return u, nil
	}
	us.mu.Lock()
	defer us.mu.Unlock()
	if u := us.users[id]; u != nil {
		return u, nil
	}
	if len(us.users) >= us.maxUsers {
		us.tooMany.Add(1)
		return nil, ErrTooManyUsers
	}
	u := &user{id: id}
	us.users[id] = u
	return u, nil
}

// drop removes u, whose lock the caller holds, and tombstones it.
func (us *UserStore) drop(u *user) {
	us.mu.Lock()
	delete(us.users, u.id)
	us.mu.Unlock()
	u.names, u.sorted, u.gone = nil, nil, true
	us.deletes.Add(1)
}

// fresh returns the actions the history lacks, each once and in first-seen
// order: the suffix an append journals and applies. Callers hold u.mu.
func (u *user) fresh(actions []string) []string {
	added := make([]string, 0, len(actions))
	seen := make(map[string]bool, len(actions))
	for _, a := range actions {
		if !seen[a] && !u.has(a) {
			seen[a] = true
			added = append(added, a)
		}
	}
	return added
}

func (u *user) has(name string) bool {
	i := sort.SearchStrings(u.sorted, name)
	return i < len(u.sorted) && u.sorted[i] == name
}

// apply appends names, none of them in the history yet. Callers hold u.mu.
func (u *user) apply(names []string) {
	for _, name := range names {
		i := sort.SearchStrings(u.sorted, name)
		u.sorted = append(u.sorted, "")
		copy(u.sorted[i+1:], u.sorted[i:])
		u.sorted[i] = name
	}
	u.names = append(u.names, names...)
}

// History returns the user's deduplicated activity history in append order,
// or ErrUnknownUser.
func (us *UserStore) History(id string) ([]string, error) {
	u := us.get(id)
	if u == nil {
		return nil, ErrUnknownUser
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.gone {
		return nil, ErrUnknownUser
	}
	return append([]string(nil), u.names...), nil
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
		u, err := us.getOrCreate(id)
		if err != nil {
			return 0, err
		}
		u.mu.Lock()
		if u.gone {
			// Concurrently deleted between lookup and lock: re-fetch so the
			// append lands on (and journals for) a live entry.
			u.mu.Unlock()
			continue
		}
		n, err := us.appendLocked(u, actions)
		u.mu.Unlock()
		if n > 0 {
			us.appends.Add(uint64(n))
		}
		return n, err
	}
}

// appendLocked journals and applies one append under u.mu: the post-dedup
// suffix is journaled before any state changes (append-before-apply, like
// engine ingests), then applied as journaled.
func (us *UserStore) appendLocked(u *user, actions []string) (int, error) {
	added := u.fresh(actions)
	if len(added) == 0 {
		return 0, nil
	}
	if n := len(u.names) + len(added); n > MaxActivityActions {
		return 0, fmt.Errorf("goalrec: user %q history would hold %d actions (limit %d)", u.id, n, MaxActivityActions)
	}
	if us.journal != nil {
		if err := us.journal.logUserAppend(u.id, added); err != nil {
			return 0, fmt.Errorf("%w: %w", ErrJournal, err)
		}
	}
	u.apply(added)
	return len(added), nil
}

// Delete removes the user and its history, journaling the delete under the
// user's lock, so no append of the user journals after it. It returns
// ErrUnknownUser when the id is not tracked.
func (us *UserStore) Delete(id string) error {
	u := us.get(id)
	if u == nil {
		return ErrUnknownUser
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.gone {
		return ErrUnknownUser
	}
	if us.journal != nil {
		if err := us.journal.logUserDelete(id); err != nil {
			return fmt.Errorf("%w: %w", ErrJournal, err)
		}
	}
	us.drop(u)
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
	u, err := us.getOrCreate(id)
	if err != nil {
		return err
	}
	u.mu.Lock()
	u.apply(u.fresh(names))
	u.mu.Unlock()
	return nil
}

// applyReplayDelete reapplies one journaled delete during WAL recovery.
func (us *UserStore) applyReplayDelete(id string) {
	if u := us.get(id); u != nil {
		u.mu.Lock()
		us.drop(u)
		u.mu.Unlock()
	}
}
