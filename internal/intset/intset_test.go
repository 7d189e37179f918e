package intset

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func s(v ...int32) Set { return v }

func TestFromUnsorted(t *testing.T) {
	tests := []struct {
		name string
		in   []int32
		want Set
	}{
		{"nil", nil, nil},
		{"single", s(4), s(4)},
		{"sorted", s(1, 2, 3), s(1, 2, 3)},
		{"reversed", s(3, 2, 1), s(1, 2, 3)},
		{"duplicates", s(5, 1, 5, 1, 5), s(1, 5)},
		{"all equal", s(7, 7, 7), s(7)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := FromUnsorted(append([]int32(nil), tt.in...))
			if !Equal(got, tt.want) {
				t.Errorf("FromUnsorted(%v) = %v, want %v", tt.in, got, tt.want)
			}
			if !IsSorted(got) {
				t.Errorf("FromUnsorted(%v) = %v is not sorted", tt.in, got)
			}
		})
	}
}

// FromUnsorted runs on every request in every strategy, so it must not
// allocate (sort.Slice did: a reflect swapper and a closure per call).
func TestFromUnsortedDoesNotAllocate(t *testing.T) {
	src := s(5, 1, 5, 3, 2)
	buf := make([]int32, len(src))
	allocs := testing.AllocsPerRun(100, func() {
		copy(buf, src)
		if got := FromUnsorted(buf); len(got) != 4 {
			t.Fatalf("FromUnsorted(%v) = %v", src, got)
		}
	})
	if allocs != 0 {
		t.Errorf("FromUnsorted allocated %.0f times per call, want 0", allocs)
	}
}

func TestIsSorted(t *testing.T) {
	if !IsSorted[int32](nil) {
		t.Error("nil should be sorted")
	}
	if !IsSorted(s(1)) {
		t.Error("singleton should be sorted")
	}
	if IsSorted(s(1, 1)) {
		t.Error("duplicates are not strictly increasing")
	}
	if IsSorted(s(2, 1)) {
		t.Error("descending is not sorted")
	}
}

func TestContains(t *testing.T) {
	set := s(1, 3, 5, 9)
	for _, v := range set {
		if !Contains(set, v) {
			t.Errorf("Contains(%v, %d) = false, want true", set, v)
		}
	}
	for _, v := range []int32{0, 2, 4, 6, 10} {
		if Contains(set, v) {
			t.Errorf("Contains(%v, %d) = true, want false", set, v)
		}
	}
	if Contains(Set(nil), 1) {
		t.Error("Contains(nil, 1) = true")
	}
}

func TestIntersection(t *testing.T) {
	tests := []struct {
		a, b, want Set
	}{
		{nil, nil, nil},
		{s(1, 2, 3), nil, nil},
		{s(1, 2, 3), s(4, 5), nil},
		{s(1, 2, 3), s(2, 3, 4), s(2, 3)},
		{s(1, 2, 3), s(1, 2, 3), s(1, 2, 3)},
		{s(1, 5, 9), s(5), s(5)},
	}
	for _, tt := range tests {
		got := Intersection(nil, tt.a, tt.b)
		if !Equal(got, tt.want) {
			t.Errorf("Intersection(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
		if n := IntersectionLen(tt.a, tt.b); n != len(tt.want) {
			t.Errorf("IntersectionLen(%v, %v) = %d, want %d", tt.a, tt.b, n, len(tt.want))
		}
	}
}

func TestDifference(t *testing.T) {
	tests := []struct {
		a, b, want Set
	}{
		{nil, nil, nil},
		{s(1, 2, 3), nil, s(1, 2, 3)},
		{nil, s(1, 2), nil},
		{s(1, 2, 3), s(2), s(1, 3)},
		{s(1, 2, 3), s(1, 2, 3), nil},
		{s(1, 2, 3), s(0, 4), s(1, 2, 3)},
	}
	for _, tt := range tests {
		got := Difference(nil, tt.a, tt.b)
		if !Equal(got, tt.want) {
			t.Errorf("Difference(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
		if n := DifferenceLen(tt.a, tt.b); n != len(tt.want) {
			t.Errorf("DifferenceLen(%v, %v) = %d, want %d", tt.a, tt.b, n, len(tt.want))
		}
	}
}

func TestUnion(t *testing.T) {
	tests := []struct {
		a, b, want Set
	}{
		{nil, nil, nil},
		{s(1, 2), nil, s(1, 2)},
		{nil, s(3), s(3)},
		{s(1, 3), s(2, 4), s(1, 2, 3, 4)},
		{s(1, 2), s(1, 2), s(1, 2)},
		{s(1, 2, 9), s(2, 3), s(1, 2, 3, 9)},
	}
	for _, tt := range tests {
		got := Union(nil, tt.a, tt.b)
		if !Equal(got, tt.want) {
			t.Errorf("Union(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
		if n := UnionLen(tt.a, tt.b); n != len(tt.want) {
			t.Errorf("UnionLen(%v, %v) = %d, want %d", tt.a, tt.b, n, len(tt.want))
		}
	}
}

func TestJaccard(t *testing.T) {
	if got := Jaccard[int32](nil, nil); got != 0 {
		t.Errorf("Jaccard(∅, ∅) = %v, want 0", got)
	}
	if got := Jaccard(s(1, 2), s(1, 2)); got != 1 {
		t.Errorf("Jaccard(identical) = %v, want 1", got)
	}
	if got := Jaccard(s(1, 2), s(3, 4)); got != 0 {
		t.Errorf("Jaccard(disjoint) = %v, want 0", got)
	}
	if got := Jaccard(s(1, 2, 3), s(2, 3, 4)); got != 0.5 {
		t.Errorf("Jaccard = %v, want 0.5", got)
	}
}

func TestSubset(t *testing.T) {
	if !Subset(nil, s(1)) {
		t.Error("∅ should be a subset of anything")
	}
	if !Subset(s(1, 3), s(1, 2, 3)) {
		t.Error("{1,3} ⊆ {1,2,3}")
	}
	if Subset(s(1, 4), s(1, 2, 3)) {
		t.Error("{1,4} ⊄ {1,2,3}")
	}
}

func TestClone(t *testing.T) {
	if Clone[int32](nil) != nil {
		t.Error("Clone(nil) should be nil")
	}
	orig := s(1, 2, 3)
	c := Clone(orig)
	if !Equal(c, orig) {
		t.Errorf("Clone = %v, want %v", c, orig)
	}
	c[0] = 99
	if orig[0] != 1 {
		t.Error("Clone shares memory with original")
	}
}

// randomSet generates a Set from a raw value for property tests.
func randomSet(r *rand.Rand, n int) Set {
	raw := make([]int32, r.Intn(n))
	for i := range raw {
		raw[i] = int32(r.Intn(n))
	}
	return FromUnsorted(raw)
}

func TestSetAlgebraProperties(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(v []reflect.Value, r *rand.Rand) {
			v[0] = reflect.ValueOf(randomSet(r, 40))
			v[1] = reflect.ValueOf(randomSet(r, 40))
		},
	}

	t.Run("inclusion-exclusion", func(t *testing.T) {
		f := func(a, b Set) bool {
			return UnionLen(a, b)+IntersectionLen(a, b) == len(a)+len(b)
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})

	t.Run("difference partitions", func(t *testing.T) {
		// a = (a − b) ⊎ (a ∩ b)
		f := func(a, b Set) bool {
			d := Difference(nil, a, b)
			i := Intersection(nil, a, b)
			return Equal(Union(nil, d, i), a)
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})

	t.Run("commutativity", func(t *testing.T) {
		f := func(a, b Set) bool {
			return Equal(Union(nil, a, b), Union(nil, b, a)) &&
				Equal(Intersection(nil, a, b), Intersection(nil, b, a))
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})

	t.Run("results sorted", func(t *testing.T) {
		f := func(a, b Set) bool {
			return IsSorted(Union(nil, a, b)) &&
				IsSorted(Intersection(nil, a, b)) &&
				IsSorted(Difference(nil, a, b))
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})

	t.Run("intersection subset", func(t *testing.T) {
		f := func(a, b Set) bool {
			i := Intersection(nil, a, b)
			return Subset(i, a) && Subset(i, b)
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})

	t.Run("jaccard symmetric and bounded", func(t *testing.T) {
		f := func(a, b Set) bool {
			j := Jaccard(a, b)
			return j == Jaccard(b, a) && j >= 0 && j <= 1
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
}

func BenchmarkIntersectionLen(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := randomSet(r, 10000)
	y := randomSet(r, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		IntersectionLen(x, y)
	}
}

func BenchmarkUnion(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	x := randomSet(r, 10000)
	y := randomSet(r, 10000)
	dst := make(Set, 0, len(x)+len(y))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = Union(dst[:0], x, y)
	}
}
