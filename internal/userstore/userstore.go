// Package userstore provides the sharded in-memory per-user activity store:
// millions of deduplicated histories keyed by user id, under a user cap. The
// store is mechanical — it owns maps, locks and counters; the goalrec layer
// owns scoring and WAL persistence.
package userstore

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
)

// ErrTooManyUsers reports an insert beyond the configured user capacity.
var ErrTooManyUsers = errors.New("userstore: user capacity exhausted")

// Options configures a Store. Zero values select the defaults.
type Options struct {
	// MaxUsers caps the number of tracked users (histories). ≤ 0 selects
	// the default of 2^21.
	MaxUsers int
}

// numShards is the map shard count, a power of two so a hash masks to it.
const numShards = 64

func (o Options) maxUsers() int {
	if o.MaxUsers > 0 {
		return o.MaxUsers
	}
	return 1 << 21
}

// User is one tracked user. All fields are guarded by Mu; a caller never
// holds two users' locks at once.
type User struct {
	ID string

	Mu sync.Mutex

	// Names is the deduplicated activity history in append order — the
	// durable truth (action names survive snapshot swaps; resolved ids do
	// not). sorted is the same set ordered for O(log n) dedup.
	Names  []string
	sorted []string

	// Gone marks a user concurrently deleted: a caller that looked the user
	// up before the delete must re-fetch instead of mutating the orphan —
	// otherwise its journal writes would land after the delete record and
	// replay would resurrect the user.
	Gone bool
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
	Users   int64  `json:"users"`
	Appends uint64 `json:"appends"`  // actions appended (post-dedup)
	Deletes uint64 `json:"deletes"`  // users deleted
	TooMany uint64 `json:"too_many"` // inserts rejected by MaxUsers

	// Views and ViewBytes are always 0: a stored user holds no counter
	// state. They stay for the frozen benchmark, which still reads them.
	Views     int64 `json:"-"`
	ViewBytes int64 `json:"-"`
}

type shard struct {
	mu    sync.RWMutex
	users map[string]*User
}

// Store is the sharded user store. It is safe for concurrent use.
type Store struct {
	shards [numShards]shard

	maxUsers int

	users                     atomic.Int64
	appends, deletes, tooMany atomic.Uint64
}

// New returns an empty store.
func New(o Options) *Store {
	s := &Store{maxUsers: o.maxUsers()}
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
	return &s.shards[fnv1a(id)%numShards]
}

// Len returns the tracked user count.
func (s *Store) Len() int { return int(s.users.Load()) }

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

// Delete removes the user with the given id.
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
	u.Names, u.sorted = nil, nil
	u.Gone = true
	u.Mu.Unlock()
	s.deletes.Add(1)
	return true
}

// NoteAppends counts n post-dedup appended actions.
func (s *Store) NoteAppends(n int) { s.appends.Add(uint64(n)) }

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	return Stats{
		Users:   s.users.Load(),
		Appends: s.appends.Load(),
		Deletes: s.deletes.Load(),
		TooMany: s.tooMany.Load(),
	}
}
