// Package vectorspace provides sparse non-negative feature vectors and the
// distance/similarity functions of the Best Match strategy (Section 5.3 of
// the paper) and the content-based baseline. Best Match does not use it: it
// scores every metric from dense integer sums that equal these distances over
// the sparse vectors, which its tests use as the reference.
//
// Vectors live in an implicit feature space indexed by dense int32 feature
// ids (goal ids for Best Match's reference, category ids for the content
// baseline); only non-zero coordinates are stored.
package vectorspace

import (
	"math"
	"sort"
)

// Vector is a sparse vector: strictly increasing feature ids with their
// values. The zero value is the zero vector.
type Vector struct {
	ids  []int32
	vals []float64
}

// FromMap builds a Vector from a feature→value map, dropping zeros.
func FromMap(m map[int32]float64) Vector {
	ids := make([]int32, 0, len(m))
	for id, v := range m {
		if v != 0 {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	vals := make([]float64, len(ids))
	for i, id := range ids {
		vals[i] = m[id]
	}
	return Vector{ids: ids, vals: vals}
}

// FromCounts builds a Vector from an integer count map, a common case for
// goal-implementation counting.
func FromCounts(m map[int32]int) Vector {
	fm := make(map[int32]float64, len(m))
	for id, c := range m {
		fm[id] = float64(c)
	}
	return FromMap(fm)
}

// Len returns the number of non-zero coordinates.
func (v Vector) Len() int { return len(v.ids) }

// IsZero reports whether v has no non-zero coordinates.
func (v Vector) IsZero() bool { return len(v.ids) == 0 }

// At returns the value at feature id (0 when absent).
func (v Vector) At(id int32) float64 {
	i := sort.Search(len(v.ids), func(i int) bool { return v.ids[i] >= id })
	if i < len(v.ids) && v.ids[i] == id {
		return v.vals[i]
	}
	return 0
}

// Norm returns the Euclidean (L2) norm.
func (v Vector) Norm() float64 {
	s := 0.0
	for _, x := range v.vals {
		s += x * x
	}
	return math.Sqrt(s)
}

// L1Norm returns the Manhattan (L1) norm.
func (v Vector) L1Norm() float64 {
	s := 0.0
	for _, x := range v.vals {
		s += math.Abs(x)
	}
	return s
}

// Add returns v + w.
func (v Vector) Add(w Vector) Vector {
	m := make(map[int32]float64, len(v.ids)+len(w.ids))
	for i, id := range v.ids {
		m[id] += v.vals[i]
	}
	for i, id := range w.ids {
		m[id] += w.vals[i]
	}
	return FromMap(m)
}

// Scale returns c·v.
func (v Vector) Scale(c float64) Vector {
	if c == 0 {
		return Vector{}
	}
	out := Vector{ids: append([]int32(nil), v.ids...), vals: make([]float64, len(v.vals))}
	for i, x := range v.vals {
		out.vals[i] = c * x
	}
	return out
}

// Dot returns the inner product v·w via a linear merge.
func (v Vector) Dot(w Vector) float64 {
	s := 0.0
	i, j := 0, 0
	for i < len(v.ids) && j < len(w.ids) {
		switch {
		case v.ids[i] < w.ids[j]:
			i++
		case v.ids[i] > w.ids[j]:
			j++
		default:
			s += v.vals[i] * w.vals[j]
			i++
			j++
		}
	}
	return s
}

// Items iterates over the non-zero coordinates in increasing feature order.
func (v Vector) Items(f func(id int32, val float64)) {
	for i, id := range v.ids {
		f(id, v.vals[i])
	}
}

// The Best Match distances (the metrics of strategy.Metric) over sparse
// vectors: the reference its integer-sum scorer is tested against. Smaller is
// closer for each. Distances involving the zero vector are the maximum for
// the bounded ones (cosine, jaccard: 1) and the norm of the other vector
// otherwise.

// CosineDistance returns 1 − CosineSimilarity(v, w).
func CosineDistance(v, w Vector) float64 { return 1 - CosineSimilarity(v, w) }

// EuclideanDistance returns the L2 distance between v and w.
func EuclideanDistance(v, w Vector) float64 {
	s := 0.0
	mergeAbsDiff(v, w, func(d float64) { s += d * d })
	return math.Sqrt(s)
}

// ManhattanDistance returns the L1 distance between v and w.
func ManhattanDistance(v, w Vector) float64 {
	s := 0.0
	mergeAbsDiff(v, w, func(d float64) { s += d })
	return s
}

// JaccardDistance returns 1 − WeightedJaccard(v, w).
func JaccardDistance(v, w Vector) float64 { return 1 - WeightedJaccard(v, w) }

// CosineSimilarity returns v·w / (|v||w|), or 0 when either vector is zero.
func CosineSimilarity(v, w Vector) float64 {
	nv, nw := v.Norm(), w.Norm()
	if nv == 0 || nw == 0 {
		return 0
	}
	return v.Dot(w) / (nv * nw)
}

// WeightedJaccard returns Σ min(v_i, w_i) / Σ max(v_i, w_i) for non-negative
// vectors, or 0 when both are zero.
func WeightedJaccard(v, w Vector) float64 {
	minSum, maxSum := 0.0, 0.0
	i, j := 0, 0
	for i < len(v.ids) || j < len(w.ids) {
		switch {
		case j >= len(w.ids) || (i < len(v.ids) && v.ids[i] < w.ids[j]):
			maxSum += v.vals[i]
			i++
		case i >= len(v.ids) || v.ids[i] > w.ids[j]:
			maxSum += w.vals[j]
			j++
		default:
			minSum += math.Min(v.vals[i], w.vals[j])
			maxSum += math.Max(v.vals[i], w.vals[j])
			i++
			j++
		}
	}
	if maxSum == 0 {
		return 0
	}
	return minSum / maxSum
}

// mergeAbsDiff feeds |v_i − w_i| for every coordinate where either vector is
// non-zero.
func mergeAbsDiff(v, w Vector, f func(float64)) {
	i, j := 0, 0
	for i < len(v.ids) || j < len(w.ids) {
		switch {
		case j >= len(w.ids) || (i < len(v.ids) && v.ids[i] < w.ids[j]):
			f(math.Abs(v.vals[i]))
			i++
		case i >= len(v.ids) || v.ids[i] > w.ids[j]:
			f(math.Abs(w.vals[j]))
			j++
		default:
			f(math.Abs(v.vals[i] - w.vals[j]))
			i++
			j++
		}
	}
}
