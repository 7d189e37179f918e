package goalrec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// FuzzUserStore drives a random interleaving of user appends, deletes,
// recommends, same-lineage ingests, and library swaps, mirroring every
// mutation into a shadow history map. Each recommend must return exactly the
// shadow history and a ranking bit-identical to the from-scratch oracle on
// the engine's current snapshot.
func FuzzUserStore(f *testing.F) {
	f.Add(int64(1), int64(2))
	f.Add(int64(42), int64(77))
	f.Add(int64(-9), int64(1<<40))
	f.Add(int64(8675309), int64(-3))
	f.Fuzz(func(t *testing.T, libSeed, opSeed int64) {
		r := rand.New(rand.NewSource(libSeed))
		buildLib := func(shift int) *Library {
			b := NewBuilder()
			n := 10 + r.Intn(40)
			for i := 0; i < n; i++ {
				acts := make([]string, 1+r.Intn(5))
				for j := range acts {
					acts[j] = fmt.Sprintf("act-%d", (r.Intn(25)+shift)%30)
				}
				if err := b.AddImplementation(fmt.Sprintf("goal-%d", r.Intn(8)), acts...); err != nil {
					t.Fatal(err)
				}
			}
			return b.Build()
		}
		e := NewEngineFromLibrary(buildLib(0))
		// A small user cap so refusal and recreation paths run too.
		us := NewUserStore(e, UserStoreOptions{MaxUsers: 6, Shards: 2})

		shadow := make(map[string][]string)
		appendShadow := func(id string, names []string) {
			h := shadow[id]
			for _, name := range names {
				dup := false
				for _, have := range h {
					if have == name {
						dup = true
						break
					}
				}
				if !dup {
					h = append(h, name)
				}
			}
			shadow[id] = h
		}

		op := rand.New(rand.NewSource(opSeed))
		ids := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
		for step := 0; step < 80; step++ {
			id := ids[op.Intn(len(ids))]
			switch op.Intn(10) {
			case 0: // swap to a fresh lineage
				e.Swap(buildLib(op.Intn(5)))
			case 1: // same-lineage ingest
				n := 1 + op.Intn(5)
				impls := make([]Implementation, n)
				for i := range impls {
					impls[i] = Implementation{
						Goal:    fmt.Sprintf("goal-%d", op.Intn(8)),
						Actions: []string{fmt.Sprintf("act-%d", op.Intn(30)), fmt.Sprintf("act-%d", op.Intn(30))},
					}
				}
				if _, err := e.AddImplementations(impls); err != nil {
					t.Fatal(err)
				}
			case 2: // delete
				err := us.Delete(id)
				if _, known := shadow[id]; known {
					if err != nil {
						t.Fatalf("delete %q: %v", id, err)
					}
					delete(shadow, id)
				} else if err == nil {
					t.Fatalf("delete of unknown %q succeeded", id)
				}
			default:
				names := make([]string, 1+op.Intn(4))
				for i := range names {
					names[i] = fmt.Sprintf("act-%d", op.Intn(35)) // some unresolvable
				}
				if op.Intn(3) > 0 { // append twice as often as recommend
					if _, err := us.Append(id, names); err != nil {
						_, known := shadow[id]
						if errors.Is(err, ErrTooManyUsers) && !known && len(shadow) >= 6 {
							continue // capacity refusal on a genuinely full store
						}
						t.Fatalf("append %q: %v", id, err)
					}
					appendShadow(id, names)
					continue
				}
				res, err := us.Recommend(context.Background(), id, allStrategies[op.Intn(len(allStrategies))], 5)
				if _, known := shadow[id]; !known {
					if err == nil {
						t.Fatalf("recommend for unknown %q succeeded", id)
					}
					continue
				}
				if err != nil {
					t.Fatalf("recommend %q: %v", id, err)
				}
				_ = res
			}
			// Every few steps, verify one known user end to end.
			if step%7 == 0 {
				for id, wantH := range shadow {
					gotH, err := us.History(id)
					if err != nil {
						t.Fatalf("history %q: %v", id, err)
					}
					if !reflect.DeepEqual(gotH, wantH) {
						t.Fatalf("history %q = %v, want %v", id, gotH, wantH)
					}
					s := allStrategies[op.Intn(len(allStrategies))]
					res, err := us.Recommend(context.Background(), id, s, 5)
					if err != nil {
						t.Fatalf("recommend %q/%s: %v", id, s, err)
					}
					rec, err := e.Recommender(s)
					if err != nil {
						t.Fatal(err)
					}
					want := rec.Recommend(wantH, 5)
					if !reflect.DeepEqual(res.Recommendations, want) {
						t.Fatalf("%s: stored ranking for %q (h=%v) diverged:\ngot  %v\nwant %v",
							s, id, wantH, res.Recommendations, want)
					}
					break
				}
			}
		}
	})
}
