// Package userstore provides the sharded in-memory per-user activity store:
// millions of {history, materialized CounterView, epoch} entries keyed by
// user id, with LRU-bounded view materialization. The store is mechanical —
// it owns maps, locks, the view LRU, and counters; the goalrec layer owns
// the view lifecycle semantics (resolution, hit/advance/rebuild) and WAL
// persistence.
package userstore

import (
	"container/list"
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"goalrec/internal/strategy"
)

// ErrTooManyUsers reports an insert beyond the configured user capacity.
var ErrTooManyUsers = errors.New("userstore: user capacity exhausted")

// Options configures a Store. Zero values select the defaults.
type Options struct {
	// MaxUsers caps the number of tracked users (histories). ≤ 0 selects
	// the default of 2^21.
	MaxUsers int
	// MaxViews caps the number of materialized CounterViews held at once;
	// beyond it the least-recently-queried views are dematerialized (their
	// histories stay). ≤ 0 selects the default of 2^16.
	MaxViews int
	// Shards is the map shard count, rounded up to a power of two. ≤ 0
	// selects 64.
	Shards int
}

func (o Options) maxUsers() int {
	if o.MaxUsers > 0 {
		return o.MaxUsers
	}
	return 1 << 21
}

func (o Options) maxViews() int {
	if o.MaxViews > 0 {
		return o.MaxViews
	}
	return 1 << 16
}

// User is one tracked user. All fields are guarded by Mu except the
// intrusive LRU bookkeeping, which the store guards with its own lock.
// Lock order: User.Mu before the store's LRU lock; never two users at once.
type User struct {
	ID string

	Mu sync.Mutex

	// Names is the deduplicated activity history in append order — the
	// durable truth (action names survive snapshot swaps; resolved ids do
	// not). sorted is the same set ordered for O(log n) dedup.
	Names  []string
	sorted []string

	// View is the materialized counter state, nil when cold. ViewGen and
	// ViewEpoch stamp the engine lineage and snapshot epoch the view (and
	// its resolved ids) are valid against. Unresolved holds the history
	// names the view's library could not resolve, re-checked on advance.
	View       *strategy.CounterView
	ViewGen    uint64
	ViewEpoch  uint64
	Unresolved []string

	// Gone marks a user concurrently deleted: a caller that looked the user
	// up before the delete must re-fetch instead of mutating the orphan —
	// otherwise its journal writes would land after the delete record and
	// replay would resurrect the user.
	Gone bool

	elem     *list.Element // LRU element while materialized, nil otherwise
	accBytes int64         // view bytes currently accounted to the store
}

// AppendNames adds the given action names to the history, skipping names
// already present, and returns the newly added suffix (aliasing names'
// backing array only when nothing was skipped). Callers hold u.Mu. The
// returned slice is exactly what must be journaled: replaying it through
// AppendNames reproduces Names bit-identically.
func (u *User) AppendNames(names []string) []string {
	added := names[:0:0]
	for _, name := range names {
		i := sort.SearchStrings(u.sorted, name)
		if i < len(u.sorted) && u.sorted[i] == name {
			continue
		}
		u.sorted = append(u.sorted, "")
		copy(u.sorted[i+1:], u.sorted[i:])
		u.sorted[i] = name
		u.Names = append(u.Names, name)
		added = append(added, name)
	}
	return added
}

// HasName reports whether name is already in the history. Callers hold u.Mu.
func (u *User) HasName(name string) bool {
	i := sort.SearchStrings(u.sorted, name)
	return i < len(u.sorted) && u.sorted[i] == name
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	Users int64 `json:"users"`
	Views int64 `json:"views"`

	Hits      uint64 `json:"hits"`       // queries served from a valid materialized view
	Advances  uint64 `json:"advances"`   // views carried across a same-lineage epoch extension
	Rebuilds  uint64 `json:"rebuilds"`   // views rebuilt after a lineage change (Swap)
	Cold      uint64 `json:"cold"`       // queries that materialized a view from scratch
	Evictions uint64 `json:"evictions"`  // views dropped by the LRU bound
	Appends   uint64 `json:"appends"`    // actions appended (post-dedup)
	Deletes   uint64 `json:"deletes"`    // users deleted
	TooMany   uint64 `json:"too_many"`   // inserts rejected by MaxUsers
	ViewBytes int64  `json:"view_bytes"` // approximate bytes held by materialized views
}

type shard struct {
	mu    sync.RWMutex
	users map[string]*User
}

// Store is the sharded user store. It is safe for concurrent use.
type Store struct {
	shards []shard
	mask   uint64

	maxUsers int
	maxViews int

	lruMu sync.Mutex
	lru   *list.List // of *User, front = most recently queried

	users     atomic.Int64
	views     atomic.Int64
	viewBytes atomic.Int64

	hits, advances, rebuilds, cold atomic.Uint64
	evictions, appends, deletes    atomic.Uint64
	tooMany                        atomic.Uint64
}

// New returns an empty store.
func New(o Options) *Store {
	n := o.Shards
	if n <= 0 {
		n = 64
	}
	shards := 1
	for shards < n {
		shards <<= 1
	}
	s := &Store{
		shards:   make([]shard, shards),
		mask:     uint64(shards - 1),
		maxUsers: o.maxUsers(),
		maxViews: o.maxViews(),
		lru:      list.New(),
	}
	for i := range s.shards {
		s.shards[i].users = make(map[string]*User)
	}
	return s
}

// fnv1a is the 64-bit FNV-1a hash of id, the shard selector.
func fnv1a(id string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return h
}

func (s *Store) shardOf(id string) *shard {
	return &s.shards[fnv1a(id)&s.mask]
}

// Len returns the tracked user count.
func (s *Store) Len() int { return int(s.users.Load()) }

// MaxViews returns the materialization bound.
func (s *Store) MaxViews() int { return s.maxViews }

// Get returns the user with the given id, or nil.
func (s *Store) Get(id string) *User {
	sh := s.shardOf(id)
	sh.mu.RLock()
	u := sh.users[id]
	sh.mu.RUnlock()
	return u
}

// GetOrCreate returns the user with the given id, creating it when absent.
// Inserts beyond MaxUsers fail with ErrTooManyUsers.
func (s *Store) GetOrCreate(id string) (*User, error) {
	sh := s.shardOf(id)
	sh.mu.RLock()
	u := sh.users[id]
	sh.mu.RUnlock()
	if u != nil {
		return u, nil
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if u := sh.users[id]; u != nil {
		return u, nil
	}
	if int(s.users.Load()) >= s.maxUsers {
		s.tooMany.Add(1)
		return nil, ErrTooManyUsers
	}
	u = &User{ID: id}
	sh.users[id] = u
	s.users.Add(1)
	return u, nil
}

// Delete removes the user with the given id, releasing its view budget.
func (s *Store) Delete(id string) bool {
	sh := s.shardOf(id)
	sh.mu.Lock()
	u := sh.users[id]
	if u != nil {
		delete(sh.users, id)
		s.users.Add(-1)
	}
	sh.mu.Unlock()
	if u == nil {
		return false
	}
	u.Mu.Lock()
	s.dropView(u)
	u.Names, u.sorted, u.Unresolved = nil, nil, nil
	u.Gone = true
	u.Mu.Unlock()
	s.deletes.Add(1)
	return true
}

// MarkMaterialized records that the caller (holding u.Mu) just set or grew
// u.View: the view joins (or moves to) the LRU front and its current
// footprint replaces the accounted one. The caller must invoke Rebalance
// after releasing u.Mu to enforce the bound.
func (s *Store) MarkMaterialized(u *User) {
	size := int64(u.View.Footprint())
	s.lruMu.Lock()
	if u.elem == nil {
		u.elem = s.lru.PushFront(u)
		s.views.Add(1)
	} else {
		s.lru.MoveToFront(u.elem)
	}
	s.lruMu.Unlock()
	s.viewBytes.Add(size - u.accBytes)
	u.accBytes = size
}

// Touch moves u's materialized view to the LRU front on a query hit.
func (s *Store) Touch(u *User) {
	s.lruMu.Lock()
	if u.elem != nil {
		s.lru.MoveToFront(u.elem)
	}
	s.lruMu.Unlock()
}

// dropView removes u from the LRU and clears its view. Callers hold u.Mu.
func (s *Store) dropView(u *User) {
	s.viewBytes.Add(-u.accBytes)
	u.accBytes = 0
	s.lruMu.Lock()
	if u.elem != nil {
		s.lru.Remove(u.elem)
		u.elem = nil
		s.views.Add(-1)
	}
	s.lruMu.Unlock()
	u.View = nil
}

// Rebalance dematerializes least-recently-queried views until the budget
// holds. It locks one victim at a time and never holds the LRU lock across
// a user lock, so callers must not hold any user lock. The budget can be
// transiently exceeded between a materialization and its Rebalance — benign
// by design (the overshoot is bounded by the number of in-flight queries).
func (s *Store) Rebalance() {
	for int(s.views.Load()) > s.maxViews {
		s.lruMu.Lock()
		back := s.lru.Back()
		s.lruMu.Unlock()
		if back == nil {
			return
		}
		u := back.Value.(*User)
		u.Mu.Lock()
		// The victim may have been touched, re-materialized, or deleted
		// since the unlocked peek; dropView re-checks under both locks.
		if u.elem == back {
			s.dropView(u)
			s.evictions.Add(1)
		}
		u.Mu.Unlock()
	}
}

// NoteHit counts a query served from a valid materialized view.
func (s *Store) NoteHit() { s.hits.Add(1) }

// NoteAdvance counts a view carried across a same-lineage epoch extension.
func (s *Store) NoteAdvance() { s.advances.Add(1) }

// NoteRebuild counts a view rebuilt after a lineage change.
func (s *Store) NoteRebuild() { s.rebuilds.Add(1) }

// NoteCold counts a query that materialized a view from scratch.
func (s *Store) NoteCold() { s.cold.Add(1) }

// NoteAppends counts n post-dedup appended actions.
func (s *Store) NoteAppends(n int) { s.appends.Add(uint64(n)) }

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	return Stats{
		Users:     s.users.Load(),
		Views:     s.views.Load(),
		Hits:      s.hits.Load(),
		Advances:  s.advances.Load(),
		Rebuilds:  s.rebuilds.Load(),
		Cold:      s.cold.Load(),
		Evictions: s.evictions.Load(),
		Appends:   s.appends.Load(),
		Deletes:   s.deletes.Load(),
		TooMany:   s.tooMany.Load(),
		ViewBytes: s.viewBytes.Load(),
	}
}
