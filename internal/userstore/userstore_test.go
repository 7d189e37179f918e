package userstore

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func TestAppendNamesDedup(t *testing.T) {
	u := &User{ID: "u1"}
	if got := u.AppendNames([]string{"b", "a", "b", "c"}); !reflect.DeepEqual(got, []string{"b", "a", "c"}) {
		t.Fatalf("added = %v", got)
	}
	if got := u.AppendNames([]string{"c", "d", "a"}); !reflect.DeepEqual(got, []string{"d"}) {
		t.Fatalf("second added = %v", got)
	}
	if want := []string{"b", "a", "c", "d"}; !reflect.DeepEqual(u.Names, want) {
		t.Fatalf("Names = %v, want %v", u.Names, want)
	}
	// Replaying the added suffixes into a fresh user reproduces the history.
	r := &User{ID: "r"}
	r.AppendNames([]string{"b", "a", "c"})
	r.AppendNames([]string{"d"})
	if !reflect.DeepEqual(r.Names, u.Names) {
		t.Fatalf("replay = %v, want %v", r.Names, u.Names)
	}
}

func TestCapacityAndDelete(t *testing.T) {
	s := New(Options{MaxUsers: 2, Shards: 4})
	if _, err := s.GetOrCreate("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetOrCreate("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetOrCreate("c"); err != ErrTooManyUsers {
		t.Fatalf("over-capacity insert: err = %v", err)
	}
	if !s.Delete("a") || s.Delete("a") {
		t.Fatal("delete semantics")
	}
	if _, err := s.GetOrCreate("c"); err != nil {
		t.Fatalf("insert after delete: %v", err)
	}
	st := s.Stats()
	if st.Users != 2 || st.Deletes != 1 || st.TooMany != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if s.Get("nope") != nil {
		t.Fatal("Get of absent user")
	}
}

func TestConcurrentChurn(t *testing.T) {
	s := New(Options{MaxUsers: 1 << 10, Shards: 8})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := fmt.Sprintf("u%d", (w*7+i)%32)
				u, err := s.GetOrCreate(id)
				if err != nil {
					t.Error(err)
					return
				}
				u.Mu.Lock()
				u.AppendNames([]string{fmt.Sprintf("a%d", i%5)})
				u.Mu.Unlock()
				if i%17 == 0 {
					s.Delete(id)
				}
			}
		}(w)
	}
	wg.Wait()
	// Every user the workers touched is one of u0..u31: the ones the store
	// still holds must be exactly what Len counts.
	n := 0
	for i := 0; i < 32; i++ {
		if s.Get(fmt.Sprintf("u%d", i)) != nil {
			n++
		}
	}
	if n != s.Len() {
		t.Fatalf("the store holds %d of the touched users, Len() = %d", n, s.Len())
	}
}
