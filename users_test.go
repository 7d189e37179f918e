package goalrec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"goalrec/internal/wal"
)

// allStrategies is every goal-based strategy, the set the user-store oracle
// checks bit-identity over.
var allStrategies = []Strategy{FocusCompleteness, FocusCloseness, Breadth, BestMatch}

// userOracle computes the from-scratch ranking a stored user must get: the
// same history POSTed as a plain activity against the same
// engine snapshot.
func userOracle(t *testing.T, e *Engine, s Strategy, history []string, k int) []Recommendation {
	t.Helper()
	rec, err := e.Recommender(s)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Recommend(history, k)
}

// checkUserOracle asserts every strategy's stored-user ranking equals
// the from-scratch oracle for the user's history.
func checkUserOracle(t *testing.T, e *Engine, us *UserStore, id string) {
	t.Helper()
	history, err := us.History(id)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range allStrategies {
		res, err := us.Recommend(context.Background(), id, s, 10)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		want := userOracle(t, e, s, history, 10)
		if !reflect.DeepEqual(res.Recommendations, want) {
			t.Fatalf("%s: stored ranking diverged for %q (h=%v):\ngot  %v\nwant %v",
				s, id, history, res.Recommendations, want)
		}
	}
}

// TestUserStoreOracle drives a user through first and repeated queries,
// appends, same-lineage ingests and a swap, and pins bit-identity against
// from-scratch scoring at every step.
func TestUserStoreOracle(t *testing.T) {
	e := NewEngine()
	storeIngest(t, e, 0, 50)
	us := NewUserStore(e, UserStoreOptions{})

	if _, err := us.Append("u1", []string{"act-1", "act-7"}); err != nil {
		t.Fatal(err)
	}
	checkUserOracle(t, e, us, "u1") // first query
	checkUserOracle(t, e, us, "u1") // repeated query

	// An append with a duplicate and an unresolvable name.
	added, err := us.Append("u1", []string{"act-7", "act-13", "unseen-action"})
	if err != nil || added != 2 {
		t.Fatalf("append = %d, %v", added, err)
	}
	checkUserOracle(t, e, us, "u1")
	res, err := us.Recommend(context.Background(), "u1", Breadth, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.UnknownActions, []string{"unseen-action"}) {
		t.Fatalf("unknown = %v", res.UnknownActions)
	}
	// Unknown names come back sorted, as Library.UnknownActions lists them.
	if _, err := us.Append("u1", []string{"another-unseen"}); err != nil {
		t.Fatal(err)
	}
	if res, err = us.Recommend(context.Background(), "u1", Breadth, 10); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.UnknownActions, []string{"another-unseen", "unseen-action"}) {
		t.Fatalf("unknown = %v", res.UnknownActions)
	}

	// Same-lineage ingest: the epoch grows.
	storeIngest(t, e, 50, 30)
	checkUserOracle(t, e, us, "u1")

	// Swap: new lineage, ids reshuffle.
	b := NewBuilder()
	for i := 0; i < 40; i++ {
		if err := b.AddImplementation(fmt.Sprintf("goal-%d", i%9),
			fmt.Sprintf("act-%d", (i*3)%20), fmt.Sprintf("act-%d", (i*11)%20)); err != nil {
			t.Fatal(err)
		}
	}
	e.Swap(b.Build())
	checkUserOracle(t, e, us, "u1")

	// Delete forgets the user.
	if err := us.Delete("u1"); err != nil {
		t.Fatal(err)
	}
	if _, err := us.Recommend(context.Background(), "u1", Breadth, 10); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("recommend after delete: %v", err)
	}
	if err := us.Delete("u1"); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("second delete: %v", err)
	}
}

// TestUserStoreWALRecovery interleaves ingest batches, user appends, and a
// user delete, restarts the store, and asserts user histories and every
// strategy's rankings come back bit-identical.
func TestUserStoreWALRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e, us := s.Engine(), s.Users()

	storeIngest(t, e, 0, 20)
	mustAppend := func(id string, names ...string) {
		t.Helper()
		if _, err := us.Append(id, names); err != nil {
			t.Fatal(err)
		}
	}
	mustAppend("alice", "act-1", "act-7")
	storeIngest(t, e, 20, 15)
	mustAppend("bob", "act-2")
	mustAppend("alice", "act-13", "act-1") // one dup, one new
	mustAppend("carol", "act-3", "act-5")
	if err := us.Delete("bob"); err != nil {
		t.Fatal(err)
	}
	mustAppend("bob", "act-9") // recreated after delete: only the new history
	storeIngest(t, e, 35, 10)

	type userState struct {
		history  []string
		rankings map[Strategy][]Recommendation
	}
	capture := func(e *Engine, us *UserStore) map[string]userState {
		out := make(map[string]userState)
		for _, id := range []string{"alice", "bob", "carol"} {
			h, err := us.History(id)
			if err != nil {
				t.Fatalf("history %q: %v", id, err)
			}
			rk := make(map[Strategy][]Recommendation)
			for _, strat := range allStrategies {
				res, err := us.Recommend(context.Background(), id, strat, 10)
				if err != nil {
					t.Fatalf("recommend %q/%s: %v", id, strat, err)
				}
				rk[strat] = res.Recommendations
			}
			out[id] = userState{history: h, rankings: rk}
		}
		return out
	}
	want := capture(e, us)
	if want["bob"].history[0] != "act-9" || len(want["bob"].history) != 1 {
		t.Fatalf("bob's recreated history = %v", want["bob"].history)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n := s2.Users().Len(); n != 3 {
		t.Fatalf("users after restart = %d", n)
	}
	if got := capture(s2.Engine(), s2.Users()); !reflect.DeepEqual(got, want) {
		t.Fatalf("user state changed across restart:\ngot  %+v\nwant %+v", got, want)
	}
	// Each recovered user also still matches the from-scratch oracle.
	for _, id := range []string{"alice", "bob", "carol"} {
		checkUserOracle(t, s2.Engine(), s2.Users(), id)
	}
	// The recovered store keeps journaling: append, restart again, verify.
	if _, err := s2.Users().Append("alice", []string{"act-11"}); err != nil {
		t.Fatal(err)
	}
	wantAlice, _ := s2.Users().History("alice")
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got, _ := s3.Users().History("alice"); !reflect.DeepEqual(got, wantAlice) {
		t.Fatalf("post-restart append lost: %v vs %v", got, wantAlice)
	}
}

// TestUserStoreCompactionCarriesUsers compacts a store whose WAL holds user
// records and asserts they survive: the snapshot covers only the library, so
// compaction must carry every user record into the fresh log.
func TestUserStoreCompactionCarriesUsers(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	storeIngest(t, s.Engine(), 0, 30)
	if _, err := s.Users().Append("u", []string{"act-1", "act-7"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Users().Delete("gone"); !errors.Is(err, ErrUnknownUser) {
		t.Fatal("delete of unknown user must not journal")
	}
	if _, err := s.Users().Append("v", []string{"act-2"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// Post-compaction appends land after the carried records.
	if _, err := s.Users().Append("u", []string{"act-13"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, _ := s2.Users().History("u"); !reflect.DeepEqual(got, []string{"act-1", "act-7", "act-13"}) {
		t.Fatalf("u's history after compaction+restart = %v", got)
	}
	if got, _ := s2.Users().History("v"); !reflect.DeepEqual(got, []string{"act-2"}) {
		t.Fatalf("v's history after compaction+restart = %v", got)
	}
	checkUserOracle(t, s2.Engine(), s2.Users(), "u")
}

// TestUserStoreWALTruncationEveryOffset interleaves ingest batches with user
// appends and deletes, then truncates the WAL at EVERY byte offset and
// reopens: each cut must recover exactly the state of the complete-record
// prefix — library epoch consistent with its batches, user histories equal
// to replaying the surviving user records in order.
func TestUserStoreWALTruncationEveryOffset(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	storeIngest(t, s.Engine(), 0, 3)
	mustAppend := func(id string, names ...string) {
		t.Helper()
		if _, err := s.Users().Append(id, names); err != nil {
			t.Fatal(err)
		}
	}
	mustAppend("a", "act-1", "act-7")
	storeIngest(t, s.Engine(), 3, 2)
	mustAppend("b", "act-2")
	mustAppend("a", "act-13")
	if err := s.Users().Delete("b"); err != nil {
		t.Fatal(err)
	}
	storeIngest(t, s.Engine(), 5, 2)
	mustAppend("b", "act-5")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	full, err := os.ReadFile(filepath.Join(dir, "ingest.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(full); cut++ {
		cutDir := t.TempDir()
		cutWAL := filepath.Join(cutDir, "ingest.wal")
		if err := os.WriteFile(cutWAL, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}

		// Expected state: replay the truncated file's intact records directly.
		wantEpoch := uint64(0)
		wantImpls := 0
		wantUsers := make(map[string][]string)
		if _, err := wal.Replay(cutWAL, func(payload []byte) error {
			switch payload[0] {
			case walKindBatch:
				epoch, impls, err := decodeBatch(payload)
				if err != nil {
					return err
				}
				wantEpoch = epoch
				wantImpls += len(impls)
			case walKindUserAppend:
				id, names, err := decodeUserAppend(payload)
				if err != nil {
					return err
				}
				wantUsers[id] = append(wantUsers[id], names...)
			case walKindUserDelete:
				id, err := decodeUserDelete(payload)
				if err != nil {
					return err
				}
				delete(wantUsers, id)
			}
			return nil
		}); err != nil {
			t.Fatalf("cut %d: manual replay: %v", cut, err)
		}

		cs, err := OpenStore(cutDir, StoreOptions{})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		if got := cs.Engine().Epoch(); got != wantEpoch {
			t.Fatalf("cut %d: epoch = %d, want %d", cut, got, wantEpoch)
		}
		if got := cs.Engine().Len(); got != wantImpls {
			t.Fatalf("cut %d: impls = %d, want %d", cut, got, wantImpls)
		}
		if got := cs.Users().Len(); got != len(wantUsers) {
			t.Fatalf("cut %d: users = %d, want %d", cut, got, len(wantUsers))
		}
		for id, names := range wantUsers {
			got, err := cs.Users().History(id)
			if err != nil {
				t.Fatalf("cut %d: history %q: %v", cut, id, err)
			}
			if !reflect.DeepEqual(got, names) {
				t.Fatalf("cut %d: history %q = %v, want %v", cut, id, got, names)
			}
		}
		cs.Close()
	}
}

// TestUserRecommendDuringSwap races queries and appends against repeated
// Swaps. Every returned ranking must equal the from-scratch oracle of ONE of
// the two libraries — a mix (stale counters scored against new postings)
// matches neither. Run under -race this also pins the locking protocol.
func TestUserRecommendDuringSwap(t *testing.T) {
	build := func(shift int) *Library {
		b := NewBuilder()
		for i := 0; i < 30; i++ {
			if err := b.AddImplementation(fmt.Sprintf("goal-%d", (i+shift)%7),
				fmt.Sprintf("act-%d", (i*3+shift)%12), fmt.Sprintf("act-%d", (i*5)%12),
				fmt.Sprintf("act-%d", (i*7+2*shift)%12)); err != nil {
				t.Fatal(err)
			}
		}
		return b.Build()
	}
	libA, libB := build(0), build(1)
	e := NewEngineFromLibrary(libA)
	us := NewUserStore(e, UserStoreOptions{})

	history := []string{"act-1", "act-3", "act-5"}
	if _, err := us.Append("u", history); err != nil {
		t.Fatal(err)
	}
	// Oracles per library, computed on isolated engines so the racing engine's
	// recommender sets stay untouched.
	type oracle map[Strategy][]Recommendation
	oracleFor := func(lib *Library) oracle {
		o := make(oracle)
		oe := NewEngineFromLibrary(lib)
		for _, s := range allStrategies {
			o[s] = userOracle(t, oe, s, history, 10)
		}
		return o
	}
	oa, ob := oracleFor(libA), oracleFor(libB)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				e.Swap(libB)
			} else {
				e.Swap(libA)
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				s := allStrategies[(w+i)%len(allStrategies)]
				res, err := us.Recommend(context.Background(), "u", s, 10)
				if err != nil {
					t.Errorf("recommend: %v", err)
					return
				}
				if !reflect.DeepEqual(res.Recommendations, oa[s]) && !reflect.DeepEqual(res.Recommendations, ob[s]) {
					t.Errorf("%s: ranking matches neither library's oracle: %v", s, res.Recommendations)
					return
				}
			}
		}(w)
	}
	close(stop)
	wg.Wait()
}

// TestUserRecommendDuringAppendsAndDeletes races stored-history queries
// against appends and deletes of the same users. A query scores a copy of
// the history taken under the user's lock, so it must see one whole
// history: each user's history is always a prefix of one name sequence
// (empty while a new user's first append is in flight), and every ranking
// must equal the from-scratch oracle of one prefix. Run under -race.
func TestUserRecommendDuringAppendsAndDeletes(t *testing.T) {
	e := NewEngine()
	storeIngest(t, e, 0, 60)
	us := NewUserStore(e, UserStoreOptions{})
	seq := []string{"act-1", "act-7", "act-13", "unseen-action", "act-3", "act-22", "act-5"}
	oracles := make(map[Strategy][][]Recommendation)
	for _, s := range allStrategies {
		for n := 0; n <= len(seq); n++ {
			oracles[s] = append(oracles[s], userOracle(t, e, s, seq[:n], 10))
		}
	}
	ids := []string{"a", "b", "c"}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s := allStrategies[(w+i)%len(allStrategies)]
				res, err := us.Recommend(context.Background(), ids[i%len(ids)], s, 10)
				if errors.Is(err, ErrUnknownUser) {
					continue
				}
				if err != nil {
					t.Errorf("recommend: %v", err)
					return
				}
				if !slices.ContainsFunc(oracles[s], func(want []Recommendation) bool {
					return reflect.DeepEqual(res.Recommendations, want)
				}) {
					t.Errorf("%s: ranking matches no history prefix: %v", s, res.Recommendations)
					return
				}
			}
		}(w)
	}
	// The one writer walks every user through the sequence, then deletes it.
	for i := 0; i < 30*len(ids)*(len(seq)+1); i++ {
		id, n := ids[i%len(ids)], i/len(ids)%(len(seq)+1)
		if n == len(seq) {
			if err := us.Delete(id); err != nil {
				t.Fatal(err)
			}
		} else if _, err := us.Append(id, seq[n:n+1]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestUserHistoryBound: a stored history holds at most MaxActivityActions
// names, the bound on a shipped activity. Appends up to it succeed; one that
// would pass it is refused whole before it is journaled.
func TestUserHistoryBound(t *testing.T) {
	s, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	us := s.Users()
	names := make([]string, MaxActivityActions+1)
	for i := range names {
		names[i] = fmt.Sprintf("act-%d", i)
	}
	half := MaxActivityActions / 2
	for _, batch := range [][]string{names[:half], names[half:MaxActivityActions]} {
		if n, err := us.Append("u", batch); err != nil || n != len(batch) {
			t.Fatalf("append of %d new names = %d, %v", len(batch), n, err)
		}
	}
	walSize := func() int64 {
		t.Helper()
		fi, err := os.Stat(s.walPath())
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	before := walSize()
	// A stored name and one new one: the new one would pass the bound.
	if n, err := us.Append("u", []string{names[0], names[MaxActivityActions]}); err == nil || n != 0 {
		t.Fatalf("append past the bound = %d, %v; want a refusal", n, err)
	}
	if h, err := us.History("u"); err != nil || !reflect.DeepEqual(h, names[:MaxActivityActions]) {
		t.Fatalf("history after the refusal holds %d names, err %v", len(h), err)
	}
	if after := walSize(); after != before {
		t.Fatalf("the refused append changed the WAL: %d → %d bytes", before, after)
	}
	// Names already stored add nothing, so they are no refusal.
	if n, err := us.Append("u", names[:3]); err != nil || n != 0 {
		t.Fatalf("append of stored names = %d, %v", n, err)
	}
}

// TestStoredUsersHoldNoCounterState: a stored user holds its history and no
// scoring state. 2 000 users append twelve distinct actions each and are
// queried once, on a library where a twelve-action activity touches more
// than a thousand implementations (≈ 12 KB of counters per user if they
// were kept); the live heap may grow by under 3 KB per user.
func TestStoredUsersHoldNoCounterState(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const (
		users        = 2000
		perUserBytes = 3 << 10
		actions      = 400
	)
	r := rand.New(rand.NewSource(7))
	names := make([]string, actions)
	for i := range names {
		names[i] = fmt.Sprintf("act-%d", i)
	}
	b := NewBuilder()
	for i := 0; i < 12000; i++ {
		impl := make([]string, 4)
		for j := range impl {
			impl[j] = names[r.Intn(actions)]
		}
		if err := b.AddImplementation(fmt.Sprintf("goal-%d", i/3), impl...); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngineFromLibrary(b.Build())
	us := NewUserStore(e, UserStoreOptions{})
	histories := make([][]string, users+1)
	for i := range histories {
		for _, a := range r.Perm(actions)[:12] {
			histories[i] = append(histories[i], names[a])
		}
	}
	ids := make([]string, users+1)
	for i := range ids {
		ids[i] = fmt.Sprintf("user-%d", i)
	}
	serve := func(i int) {
		if _, err := us.Append(ids[i], histories[i]); err != nil {
			t.Fatal(err)
		}
		if _, err := us.Recommend(context.Background(), ids[i], allStrategies[i%len(allStrategies)], 10); err != nil {
			t.Fatal(err)
		}
	}
	// Warm every strategy's shared recommender and scratch first.
	serve(users)
	for _, s := range allStrategies {
		if _, err := us.Recommend(context.Background(), ids[users], s, 10); err != nil {
			t.Fatal(err)
		}
	}
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	for i := 0; i < users; i++ {
		serve(i)
	}
	after := heap()
	grown := int64(after) - int64(before)
	t.Logf("heap grew %d B for %d users (%d B per user)", grown, users, grown/users)
	if grown > users*perUserBytes {
		t.Fatalf("heap grew %d B per stored user, want under %d", grown/users, perUserBytes)
	}
	runtime.KeepAlive(us)
}

// recordingJournal keeps a UserStore's journal records in log order, so a
// test can replay them into a fresh store the way a Store's WAL recovery
// does.
type recordingJournal struct {
	mu      sync.Mutex
	records []recordedUserOp
}

type recordedUserOp struct {
	id     string
	names  []string // nil for a delete
	delete bool
}

func (j *recordingJournal) logUserAppend(id string, names []string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.records = append(j.records, recordedUserOp{id: id, names: slices.Clone(names)})
	return nil
}

func (j *recordingJournal) logUserDelete(id string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.records = append(j.records, recordedUserOp{id: id, delete: true})
	return nil
}

// replay applies the records to a fresh store.
func (j *recordingJournal) replay(t *testing.T) *UserStore {
	t.Helper()
	us := NewUserStore(NewEngine(), UserStoreOptions{})
	for _, r := range j.records {
		if r.delete {
			us.applyReplayDelete(r.id)
		} else if err := us.applyReplayAppend(r.id, r.names); err != nil {
			t.Fatal(err)
		}
	}
	return us
}

// TestUserStoreAppendDedup: an append journals exactly its post-dedup
// suffix, in first-seen order, and replaying the journaled suffixes
// reproduces the history.
func TestUserStoreAppendDedup(t *testing.T) {
	var j recordingJournal
	us := NewUserStore(NewEngine(), UserStoreOptions{})
	us.setJournal(&j)
	for _, c := range []struct {
		append, added []string
	}{
		{[]string{"b", "a", "b", "c"}, []string{"b", "a", "c"}},
		{[]string{"c", "d", "a", "d"}, []string{"d"}},
		{[]string{"a", "c"}, nil},
	} {
		if n, err := us.Append("u1", c.append); err != nil || n != len(c.added) {
			t.Fatalf("Append(%v) = %d, %v; want %d new", c.append, n, err, len(c.added))
		}
	}
	want := []string{"b", "a", "c", "d"}
	if h, err := us.History("u1"); err != nil || !reflect.DeepEqual(h, want) {
		t.Fatalf("History = %v, %v; want %v", h, err, want)
	}
	if len(j.records) != 2 || !reflect.DeepEqual(j.records[0].names, want[:3]) || !reflect.DeepEqual(j.records[1].names, want[3:]) {
		t.Fatalf("journaled %+v, want the suffixes %v and %v", j.records, want[:3], want[3:])
	}
	if h, err := j.replay(t).History("u1"); err != nil || !reflect.DeepEqual(h, want) {
		t.Fatalf("replayed History = %v, %v; want %v", h, err, want)
	}
	if st := us.Stats(); st.Appends != 4 || st.Users != 1 {
		t.Fatalf("stats = %+v, want 4 appends by 1 user", st)
	}
}

// TestUserStoreCapacityAndDelete: a new user past MaxUsers is refused, a
// delete frees its slot, and the counters say so.
func TestUserStoreCapacityAndDelete(t *testing.T) {
	us := NewUserStore(NewEngine(), UserStoreOptions{MaxUsers: 2})
	for _, id := range []string{"a", "b"} {
		if _, err := us.Append(id, []string{"x"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := us.Append("c", []string{"x"}); !errors.Is(err, ErrTooManyUsers) {
		t.Fatalf("over-capacity append: err = %v", err)
	}
	if _, err := us.Append("a", []string{"y"}); err != nil {
		t.Fatalf("append for a tracked user at capacity: %v", err)
	}
	if err := us.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if err := us.Delete("a"); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("second delete: err = %v", err)
	}
	if _, err := us.Append("c", []string{"x"}); err != nil {
		t.Fatalf("append after a delete: %v", err)
	}
	if st := us.Stats(); st.Users != 2 || st.Deletes != 1 || st.TooMany != 1 || st.Appends != 4 {
		t.Fatalf("stats = %+v", st)
	}
	if _, err := us.History("nope"); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("History of an absent user: err = %v", err)
	}
}

// TestUserStoreConcurrentChurn races appends and deletes of the same users:
// Len must equal the users still held, and the journal, replayed, must
// reproduce every history, so no append of a user journals after its
// delete. Run under -race.
func TestUserStoreConcurrentChurn(t *testing.T) {
	var j recordingJournal
	us := NewUserStore(NewEngine(), UserStoreOptions{MaxUsers: 1 << 10})
	us.setJournal(&j)
	const users = 32
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := fmt.Sprintf("u%d", (w*7+i)%users)
				if _, err := us.Append(id, []string{fmt.Sprintf("a%d", i%5), fmt.Sprintf("b%d", w)}); err != nil {
					t.Error(err)
					return
				}
				if i%17 == 0 {
					if err := us.Delete(id); err != nil && !errors.Is(err, ErrUnknownUser) {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	replayed := j.replay(t)
	held := 0
	for i := 0; i < users; i++ {
		id := fmt.Sprintf("u%d", i)
		h, err := us.History(id)
		if err == nil {
			held++
		}
		rh, rerr := replayed.History(id)
		if !reflect.DeepEqual(h, rh) || (err == nil) != (rerr == nil) {
			t.Fatalf("%s: live history %v (%v), replayed %v (%v)", id, h, err, rh, rerr)
		}
	}
	if held != us.Len() {
		t.Fatalf("the store holds %d of the touched users, Len() = %d", held, us.Len())
	}
}
