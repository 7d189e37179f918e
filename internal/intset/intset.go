// Package intset provides set algebra over sorted slices of integer ids.
//
// The goal model keeps every action set (user activities, implementation
// activities, candidate pools) as a strictly increasing slice. All operations
// below rely on that invariant and preserve it, which makes intersection,
// difference and union linear merges with no hashing and no allocation beyond
// the destination slice.
//
// The functions are generic over any 32-bit integer-kind id type so that the
// core model's distinct ActionID / GoalID / ImplID types can use them without
// conversions.
package intset

import (
	"slices"
	"sort"
)

// ID constrains the element types the package operates on.
type ID interface{ ~int32 }

// Set is the conventional element type used by tests and docs; any sorted
// slice of an ID type works.
type Set = []int32

// FromUnsorted sorts ids, removes duplicates and returns the result.
// The input slice is sorted in place.
func FromUnsorted[T ID](ids []T) []T {
	if len(ids) < 2 {
		return ids
	}
	slices.Sort(ids)
	out := ids[:1]
	for _, v := range ids[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// IsSorted reports whether ids is strictly increasing, i.e. a valid set.
func IsSorted[T ID](ids []T) bool {
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			return false
		}
	}
	return true
}

// Contains reports whether s contains v using binary search.
func Contains[T ID](s []T, v T) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	return i < len(s) && s[i] == v
}

// IntersectionLen returns |a ∩ b| without materializing the intersection.
func IntersectionLen[T ID](a, b []T) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// Intersection appends a ∩ b to dst and returns the extended slice.
// dst may be nil; it must not alias a or b.
func Intersection[T ID](dst, a, b []T) []T {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// DifferenceLen returns |a − b| without materializing the difference.
func DifferenceLen[T ID](a, b []T) int {
	return len(a) - IntersectionLen(a, b)
}

// Difference appends a − b (asymmetric set difference) to dst and returns the
// extended slice. dst may be nil, or a[:0] to filter a in place (the write
// index never passes the read index); it must not otherwise alias a or b.
func Difference[T ID](dst, a, b []T) []T {
	i, j := 0, 0
	for i < len(a) {
		switch {
		case j >= len(b) || a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			j++
		default:
			i++
			j++
		}
	}
	return dst
}

// Union appends a ∪ b to dst and returns the extended slice.
// dst may be nil; it must not alias a or b.
func Union[T ID](dst, a, b []T) []T {
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			dst = append(dst, a[i])
			i++
		case i >= len(a) || a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// UnionLen returns |a ∪ b| without materializing the union.
func UnionLen[T ID](a, b []T) int {
	return len(a) + len(b) - IntersectionLen(a, b)
}

// Jaccard returns |a ∩ b| / |a ∪ b|, the Jaccard (Tanimoto) coefficient.
// The Jaccard of two empty sets is defined as 0.
func Jaccard[T ID](a, b []T) float64 {
	u := UnionLen(a, b)
	if u == 0 {
		return 0
	}
	return float64(IntersectionLen(a, b)) / float64(u)
}

// Equal reports whether a and b contain the same elements.
func Equal[T ID](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Subset reports whether every element of a is also in b.
func Subset[T ID](a, b []T) bool {
	return IntersectionLen(a, b) == len(a)
}

// Clone returns a copy of s. Clone(nil) returns nil.
func Clone[T ID](s []T) []T {
	if s == nil {
		return nil
	}
	out := make([]T, len(s))
	copy(out, s)
	return out
}
