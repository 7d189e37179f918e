package vectorspace

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func vec(m map[int32]float64) Vector { return FromMap(m) }

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestFromMapDropsZeros(t *testing.T) {
	v := vec(map[int32]float64{1: 0, 2: 3, 5: 0, 7: -1})
	if v.Len() != 2 {
		t.Fatalf("Len = %d, want 2", v.Len())
	}
	if v.At(1) != 0 || v.At(2) != 3 || v.At(7) != -1 {
		t.Errorf("unexpected coordinates: At(1)=%v At(2)=%v At(7)=%v", v.At(1), v.At(2), v.At(7))
	}
}

func TestFromCounts(t *testing.T) {
	v := FromCounts(map[int32]int{0: 2, 3: 1})
	if v.At(0) != 2 || v.At(3) != 1 {
		t.Errorf("FromCounts coordinates wrong: %v %v", v.At(0), v.At(3))
	}
}

func TestZeroVector(t *testing.T) {
	var z Vector
	if !z.IsZero() || z.Len() != 0 || z.Norm() != 0 || z.L1Norm() != 0 {
		t.Error("zero value is not the zero vector")
	}
	if z.At(5) != 0 {
		t.Error("At on zero vector should be 0")
	}
}

func TestAddScaleDot(t *testing.T) {
	v := vec(map[int32]float64{0: 1, 2: 2})
	w := vec(map[int32]float64{1: 3, 2: 4})
	sum := v.Add(w)
	if sum.At(0) != 1 || sum.At(1) != 3 || sum.At(2) != 6 {
		t.Errorf("Add wrong: %v %v %v", sum.At(0), sum.At(1), sum.At(2))
	}
	// Cancellation removes coordinates.
	neg := w.Scale(-1)
	diff := w.Add(neg)
	if !diff.IsZero() {
		t.Errorf("w + (−w) has %d non-zeros", diff.Len())
	}
	if got := v.Dot(w); got != 8 {
		t.Errorf("Dot = %v, want 8 (only shared coordinate 2)", got)
	}
	if got := v.Scale(2).At(2); got != 4 {
		t.Errorf("Scale(2).At(2) = %v, want 4", got)
	}
	if !v.Scale(0).IsZero() {
		t.Error("Scale(0) should be zero vector")
	}
}

func TestNorms(t *testing.T) {
	v := vec(map[int32]float64{0: 3, 1: 4})
	if v.Norm() != 5 {
		t.Errorf("Norm = %v, want 5", v.Norm())
	}
	if v.L1Norm() != 7 {
		t.Errorf("L1Norm = %v, want 7", v.L1Norm())
	}
}

func TestItemsOrder(t *testing.T) {
	v := vec(map[int32]float64{9: 1, 2: 2, 5: 3})
	var ids []int32
	v.Items(func(id int32, _ float64) { ids = append(ids, id) })
	want := []int32{2, 5, 9}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("Items order = %v, want %v", ids, want)
		}
	}
}

func TestCosine(t *testing.T) {
	v := vec(map[int32]float64{0: 1})
	w := vec(map[int32]float64{0: 5})
	if got := CosineSimilarity(v, w); !almostEqual(got, 1) {
		t.Errorf("cosine of parallel vectors = %v, want 1", got)
	}
	orth := vec(map[int32]float64{1: 2})
	if got := CosineSimilarity(v, orth); got != 0 {
		t.Errorf("cosine of orthogonal vectors = %v, want 0", got)
	}
	if got := CosineSimilarity(v, Vector{}); got != 0 {
		t.Errorf("cosine with zero vector = %v, want 0", got)
	}
	if got := CosineDistance(v, w); !almostEqual(got, 0) {
		t.Errorf("cosine distance of parallel = %v, want 0", got)
	}
}

func TestEuclideanManhattan(t *testing.T) {
	v := vec(map[int32]float64{0: 1, 1: 2})
	w := vec(map[int32]float64{1: 4, 2: 2})
	// diffs: (1, −2, −2)
	if got := EuclideanDistance(v, w); !almostEqual(got, 3) {
		t.Errorf("euclidean = %v, want 3", got)
	}
	if got := ManhattanDistance(v, w); !almostEqual(got, 5) {
		t.Errorf("manhattan = %v, want 5", got)
	}
}

func TestWeightedJaccard(t *testing.T) {
	v := vec(map[int32]float64{0: 2, 1: 1})
	w := vec(map[int32]float64{0: 1, 2: 1})
	// min sum = 1, max sum = 2+1+1 = 4.
	if got := WeightedJaccard(v, w); !almostEqual(got, 0.25) {
		t.Errorf("weighted jaccard = %v, want 0.25", got)
	}
	if got := WeightedJaccard(Vector{}, Vector{}); got != 0 {
		t.Errorf("jaccard of zeros = %v, want 0", got)
	}
	if got := WeightedJaccard(v, v); !almostEqual(got, 1) {
		t.Errorf("jaccard self = %v, want 1", got)
	}
}

func randomVector(r *rand.Rand) Vector {
	m := make(map[int32]float64)
	for n := r.Intn(8); n > 0; n-- {
		m[int32(r.Intn(12))] = float64(1 + r.Intn(5))
	}
	return FromMap(m)
}

// distances are the Best Match distances by metric name.
var distances = map[string]func(v, w Vector) float64{
	"cosine": CosineDistance, "euclidean": EuclideanDistance, "manhattan": ManhattanDistance, "jaccard": JaccardDistance,
}

func TestMetricProperties(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(v []reflect.Value, r *rand.Rand) {
			v[0] = reflect.ValueOf(randomVector(r))
			v[1] = reflect.ValueOf(randomVector(r))
		},
	}
	for name, dist := range distances {
		t.Run(name, func(t *testing.T) {
			f := func(v, w Vector) bool {
				d := dist(v, w)
				// Symmetry and non-negativity.
				if d < -1e-12 || math.Abs(d-dist(w, v)) > 1e-12 {
					return false
				}
				// Identity (non-zero vectors at distance 0 from themselves;
				// cosine/jaccard of zero vector conventionally maximal).
				if !v.IsZero() && dist(v, v) > 1e-12 {
					return false
				}
				return true
			}
			if err := quick.Check(f, cfg); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestTriangleInequalityEuclideanManhattan(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(v []reflect.Value, r *rand.Rand) {
			for i := range v {
				v[i] = reflect.ValueOf(randomVector(r))
			}
		},
	}
	for _, name := range []string{"euclidean", "manhattan"} {
		dist := distances[name]
		f := func(a, b, c Vector) bool {
			return dist(a, c) <= dist(a, b)+dist(b, c)+1e-9
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Errorf("%v: %v", name, err)
		}
	}
}

func BenchmarkDot(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	m1 := make(map[int32]float64)
	m2 := make(map[int32]float64)
	for i := 0; i < 200; i++ {
		m1[int32(r.Intn(1000))] = r.Float64()
		m2[int32(r.Intn(1000))] = r.Float64()
	}
	v, w := FromMap(m1), FromMap(m2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Dot(w)
	}
}
