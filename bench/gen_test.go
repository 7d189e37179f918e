package main

import (
	"bytes"
	"crypto/sha256"
	"testing"
)

var testSizes = sizes{impls: 2000, actions: 400, pool: 64, sessions: 40}

func libraryHash(t *testing.T, seed uint64) [32]byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeLibrary(&buf, seed, testSizes); err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(buf.Bytes())
}

// streamHash hashes the wire form of the first n requests of every stream a
// workload defines.
func streamHash(wl *workload, seed uint64, n int) [32]byte {
	h := sha256.New()
	for _, client := range []int{0, 1, verifyClient, ladderClient} {
		st := wl.stream(seed, client, testSizes)
		for i := 0; i < n; i++ {
			o := st.next()
			h.Write([]byte(o.method + " " + o.path + "\n"))
			h.Write(o.body)
		}
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

func TestSameSeedSameInputs(t *testing.T) {
	if libraryHash(t, 7) != libraryHash(t, 7) {
		t.Error("the same seed produced two different libraries")
	}
	if libraryHash(t, 7) == libraryHash(t, 8) {
		t.Error("seeds 7 and 8 produced the same library")
	}
	for i := range workloads {
		wl := &workloads[i]
		if streamHash(wl, 7, 2000) != streamHash(wl, 7, 2000) {
			t.Errorf("%s: the same seed produced two different request streams", wl.name)
		}
		if streamHash(wl, 7, 2000) == streamHash(wl, 8, 2000) {
			t.Errorf("%s: seeds 7 and 8 produced the same request stream", wl.name)
		}
	}
}

// TestSessionOrder replays a session stream and checks what the daemon and
// the checker rely on: a user's first op is an append, every append is
// followed by a scoring of exactly the history appended so far, the delete
// comes last, and nothing follows it.
func TestSessionOrder(t *testing.T) {
	wl, err := findWorkload("user_session")
	if err != nil {
		t.Fatal(err)
	}
	st := wl.stream(3, 0, testSizes).(*sessionStream)
	type user struct {
		history []string
		pending bool // an append awaits its recommend
		deleted bool
	}
	users := map[string]*user{}
	get := func(id string) *user {
		if users[id] == nil {
			users[id] = &user{}
		}
		return users[id]
	}
	for _, o := range st.prefill() {
		get(o.user).history = append([]string(nil), o.activity...)
	}
	ingests, deletes := 0, 0
	for i := 0; i < 20000; i++ {
		o := st.next()
		if o.kind == opIngest {
			ingests++
			if len(o.impls) != ingestBatch {
				t.Fatalf("op %d: ingest of %d implementations, want %d", i, len(o.impls), ingestBatch)
			}
			continue
		}
		u := get(o.user)
		if u.deleted {
			t.Fatalf("op %d: %s on user %s after its delete", i, o.kind, o.user)
		}
		switch o.kind {
		case opUserAppend:
			if u.pending {
				t.Fatalf("op %d: user %s got two appends in a row", i, o.user)
			}
			for _, a := range o.activity {
				for _, h := range u.history {
					if a == h {
						t.Fatalf("op %d: user %s is appended %s twice", i, o.user, a)
					}
				}
			}
			u.history = append(u.history, o.activity...)
			u.pending = true
		case opUserRecommend:
			if !u.pending {
				t.Fatalf("op %d: user %s is scored without a preceding append", i, o.user)
			}
			if len(o.activity) != len(u.history) {
				t.Fatalf("op %d: user %s scored on %d actions, %d were appended", i, o.user, len(o.activity), len(u.history))
			}
			for j := range u.history {
				if o.activity[j] != u.history[j] {
					t.Fatalf("op %d: user %s history differs at %d", i, o.user, j)
				}
			}
			u.pending = false
		case opUserDelete:
			if u.pending || len(u.history) != sessionLen {
				t.Fatalf("op %d: user %s deleted with %d actions, pending=%v", i, o.user, len(u.history), u.pending)
			}
			u.deleted = true
			deletes++
		default:
			t.Fatalf("op %d: unexpected %s in a session stream", i, o.kind)
		}
	}
	if ingests != 20000/ingestEvery {
		t.Errorf("%d ingests in 20000 ops, want %d", ingests, 20000/ingestEvery)
	}
	if deletes == 0 {
		t.Error("no session ended in 20000 ops")
	}
	// The second load client owns its own users and never ingests, so the
	// two connections cannot reorder one user's ops or the acked batches.
	other := wl.stream(3, 1, testSizes).(*sessionStream)
	for i := 0; i < 2000; i++ {
		o := other.next()
		if o.kind == opIngest {
			t.Fatalf("op %d of client 1 is an ingest", i)
		}
		if _, shared := users[o.user]; shared {
			t.Fatalf("op %d of client 1 is on user %s, which client 0 owns", i, o.user)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 37, 2, 29, 4, 22, 7, 16, 11})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
