// Benchmarks regenerating every table and figure of the paper's evaluation
// (see DESIGN.md's per-experiment index). Each benchmark measures the cost
// of computing one experiment's statistics over prepared environments;
// dataset generation, splitting and model fitting happen once per process.
//
//	go test -bench=. -benchmem
package goalrec_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"goalrec"
	"goalrec/internal/core"
	"goalrec/internal/eval"
	"goalrec/internal/experiments"
	"goalrec/internal/strategy"
)

// benchConfig keeps the benchmark datasets small enough for iteration while
// preserving both connectivity regimes.
func benchConfig() experiments.Config {
	return experiments.Config{
		Scale:         0.1,
		K:             10,
		KeepFrac:      0.3,
		MaxUsers:      150,
		Seed:          1,
		ALSFactors:    8,
		ALSIterations: 4,
	}
}

var (
	envOnce sync.Once
	foodEnv *experiments.Env
	lifeEnv *experiments.Env
	envErr  error
)

func envs(b *testing.B) (*experiments.Env, *experiments.Env) {
	envOnce.Do(func() {
		foodEnv, envErr = experiments.NewFoodMartEnv(benchConfig())
		if envErr == nil {
			lifeEnv, envErr = experiments.NewFortyThreeEnv(benchConfig())
		}
	})
	if envErr != nil {
		b.Fatal(envErr)
	}
	return foodEnv, lifeEnv
}

// BenchmarkTable2ResultOverlap regenerates Table 2 (overlap of goal-based vs
// standard top-10 lists) on both datasets.
func BenchmarkTable2ResultOverlap(b *testing.B) {
	food, life := envs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Table2(food)
		experiments.Table2(life)
	}
}

// BenchmarkTable3PopularityCorrelation regenerates Table 3 (Pearson
// correlation of recommendations with the top-20 popular actions).
func BenchmarkTable3PopularityCorrelation(b *testing.B) {
	food, life := envs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Table3(food)
		experiments.Table3(life)
	}
}

// BenchmarkTable4Completeness regenerates Table 4 / Figure 3 (goal
// completeness after following the recommendations).
func BenchmarkTable4Completeness(b *testing.B) {
	food, life := envs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Table4(food)
		experiments.Table4(life)
	}
}

// BenchmarkTable5PairwiseSimilarity regenerates Table 5 (pairwise feature
// similarity inside each list; foodmart only, as in the paper).
func BenchmarkTable5PairwiseSimilarity(b *testing.B) {
	food, _ := envs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Table5(food)
	}
}

// BenchmarkFigure4AvgTPR regenerates Figure 4 (average TPR at top-5 and
// top-10).
func BenchmarkFigure4AvgTPR(b *testing.B) {
	food, life := envs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure4(food)
		experiments.Figure4(life)
	}
}

// BenchmarkFigure5ListFrequency regenerates Figure 5 (frequency of retrieved
// actions across recommendation lists).
func BenchmarkFigure5ListFrequency(b *testing.B) {
	food, _ := envs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure5(food)
	}
}

// BenchmarkFigure6LibraryFrequency regenerates Figure 6 (library frequency
// of retrieved actions).
func BenchmarkFigure6LibraryFrequency(b *testing.B) {
	food, _ := envs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure6(food)
	}
}

// BenchmarkTable6GoalMethodOverlap regenerates Table 6 (overlap among the
// goal-based methods).
func BenchmarkTable6GoalMethodOverlap(b *testing.B) {
	food, life := envs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Table6(food)
		experiments.Table6(life)
	}
}

// BenchmarkFigure7Scalability runs one cell of the Figure 7 latency sweep
// (library construction + timed queries per strategy).
func BenchmarkFigure7Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Scalability(experiments.ScalabilityConfig{
			Sizes: []int{5000}, Actions: 1500, Queries: 20, Seed: uint64(i),
		})
	}
}

// BenchmarkAblationBreadthVariants runs the Breadth weighting ablation (A1).
func BenchmarkAblationBreadthVariants(b *testing.B) {
	_, life := envs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.AblationBreadth(life)
	}
}

// BenchmarkAblationBestMatchDistances runs the Best Match metric ablation
// (A2).
func BenchmarkAblationBestMatchDistances(b *testing.B) {
	_, life := envs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.AblationBestMatch(life)
	}
}

// BenchmarkBeyondAccuracy runs the beyond-accuracy metric suite (B1).
func BenchmarkBeyondAccuracy(b *testing.B) {
	food, _ := envs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.BeyondAccuracy(food)
	}
}

// BenchmarkRankingAccuracy runs the classical ranking metrics suite (B2).
func BenchmarkRankingAccuracy(b *testing.B) {
	food, life := envs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RankingAccuracy(food)
		experiments.RankingAccuracy(life)
	}
}

// BenchmarkSignificance runs the paired-bootstrap significance suite (B4).
func BenchmarkSignificance(b *testing.B) {
	_, life := envs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.SignificanceVsBaselines(life)
	}
}

// BenchmarkAblationHybridBlend runs the hybrid goal+content α sweep (A3).
func BenchmarkAblationHybridBlend(b *testing.B) {
	food, _ := envs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.AblationHybrid(food)
	}
}

// Per-strategy micro-benchmarks: the cost of a single top-10 query against
// the high-connectivity (foodmart-like) library.

func benchStrategy(b *testing.B, mk func(*core.Library) strategy.Recommender) {
	food, _ := envs(b)
	lib := food.Dataset.Library
	rec := mk(lib)
	inputs := food.Inputs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Recommend(inputs[i%len(inputs)], 10)
	}
}

func BenchmarkStrategyFocusCompleteness(b *testing.B) {
	benchStrategy(b, func(l *core.Library) strategy.Recommender {
		return strategy.NewFocus(l, strategy.Completeness)
	})
}

func BenchmarkStrategyFocusCloseness(b *testing.B) {
	benchStrategy(b, func(l *core.Library) strategy.Recommender {
		return strategy.NewFocus(l, strategy.Closeness)
	})
}

func BenchmarkStrategyBreadth(b *testing.B) {
	benchStrategy(b, func(l *core.Library) strategy.Recommender {
		return strategy.NewBreadth(l)
	})
}

func BenchmarkStrategyBestMatch(b *testing.B) {
	benchStrategy(b, func(l *core.Library) strategy.Recommender {
		return strategy.NewBestMatch(l)
	})
}

// BenchmarkRecommendBatch compares the batch fan-out against per-item
// sequential calls over one shared recommender; on multi-core hosts the
// batch path amortizes the worker pool across the whole activity set.
func BenchmarkRecommendBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	bld := goalrec.NewBuilder()
	for i := 0; i < 20000; i++ {
		acts := make([]string, 2+rng.Intn(8))
		for j := range acts {
			acts[j] = fmt.Sprintf("a%d", rng.Intn(2000))
		}
		if err := bld.AddImplementation(fmt.Sprintf("g%d", i/2), acts...); err != nil {
			b.Fatal(err)
		}
	}
	lib := bld.Build()
	rec := lib.MustRecommender(goalrec.Breadth)
	activities := make([][]string, 64)
	for i := range activities {
		acts := make([]string, 5)
		for j := range acts {
			acts[j] = fmt.Sprintf("a%d", rng.Intn(2000))
		}
		activities[i] = acts
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, h := range activities {
				rec.Recommend(h, 10)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			goalrec.RecommendBatch(rec, activities, 10)
		}
	})
}

// BenchmarkCollectParallel measures the parallel evaluation loop the
// experiment harness uses.
func BenchmarkCollectParallel(b *testing.B) {
	food, _ := envs(b)
	rec := food.Methods["breadth"].Rec
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.Collect(rec, food.Inputs, 10)
	}
}

// dynBenchLineage is how many publishes one lineage of
// BenchmarkDynamicSnapshotAppend takes before the next starts over from the
// flat base: the backlog a publish extends is bounded by it whatever b.N is.
const dynBenchLineage = 256

// dynBenchEnv caches one pre-grown library per size for the dynamic
// snapshot benchmarks: the flat library every lineage starts from, and a
// Builder holding the same implementations for the cold-rebuild baseline.
type dynBenchEnv struct {
	flat *core.Library
	bld  core.Builder

	// Pre-drawn extra implementations, one appended per publish.
	extras [dynBenchLineage]core.Implementation
}

var (
	dynBenchMu   sync.Mutex
	dynBenchEnvs = map[int]*dynBenchEnv{}
)

func dynBenchEnvFor(b *testing.B, n int) *dynBenchEnv {
	b.Helper()
	dynBenchMu.Lock()
	defer dynBenchMu.Unlock()
	if e, ok := dynBenchEnvs[n]; ok {
		return e
	}
	const actionUniverse = 10_000
	rng := rand.New(rand.NewSource(1))
	e := &dynBenchEnv{}
	draw := func() core.Implementation {
		acts := make([]core.ActionID, 8)
		for j := range acts {
			acts[j] = core.ActionID(rng.Intn(actionUniverse))
		}
		return core.Implementation{Goal: core.GoalID(rng.Intn(n/20 + 1)), Actions: acts}
	}
	for i := 0; i < n; i++ {
		impl := draw()
		if _, err := e.bld.Add(impl.Goal, impl.Actions); err != nil {
			b.Fatal(err)
		}
	}
	e.flat = e.bld.Build()
	for i := range e.extras {
		e.extras[i] = draw()
	}
	dynBenchEnvs[n] = e
	return e
}

// BenchmarkDynamicSnapshotAppend measures publishing one appended
// implementation out of a large library: the incremental path (Add +
// Snapshot on a DynamicLibrary, which extends the previous epoch's indexes)
// against the cold baseline of re-deriving every index with Builder.Build.
// The incremental path is required to be at least an order of magnitude
// faster — that gap is the point of the epoch-based engine.
//
// A lineage is started over from the flat base every dynBenchLineage
// publishes, so ns/op and B/op are per publish at a bounded backlog and do
// not depend on b.N. retained=1 drops each snapshot when the next exists;
// retained=all keeps every one of a lineage alive, as lagging readers do.
// live-B/op is what a publish leaves on the heap after a collection: the
// per-epoch cost of retention.
func BenchmarkDynamicSnapshotAppend(b *testing.B) {
	for _, n := range []int{250_000, 1_000_000} {
		e := dynBenchEnvFor(b, n)
		for _, retainAll := range []bool{false, true} {
			retained := "1"
			if retainAll {
				retained = "all"
			}
			b.Run(fmt.Sprintf("incremental-%d/retained=%s", n, retained), func(b *testing.B) {
				b.ReportAllocs()
				var (
					dyn  *core.DynamicLibrary
					held []*core.Library
					live uint64 // heap in use when the current lineage started
					left uint64 // heap the finished lineages left in use, summed
				)
				heapInUse := func() uint64 {
					var m runtime.MemStats
					runtime.GC()
					runtime.ReadMemStats(&m)
					return m.HeapAlloc
				}
				// endLineage charges the live heap the lineage built up, then
				// lets go of it.
				endLineage := func() {
					if dyn != nil {
						if now := heapInUse(); now > live {
							left += now - live
						}
						runtime.KeepAlive(dyn) // the lineage's latest snapshot counts as live
					}
					dyn, held = nil, held[:0]
					clear(held[:cap(held)])
				}
				for i := 0; i < b.N; i++ {
					if i%dynBenchLineage == 0 {
						b.StopTimer()
						endLineage()
						live = heapInUse()
						dyn = core.NewDynamicLibrary()
						dyn.Swap(e.flat)
						b.StartTimer()
					}
					extra := e.extras[i%dynBenchLineage]
					if _, err := dyn.Add(extra.Goal, extra.Actions); err != nil {
						b.Fatal(err)
					}
					snap := dyn.Snapshot()
					if retainAll {
						held = append(held, snap)
					}
				}
				b.StopTimer()
				endLineage()
				b.ReportMetric(float64(left)/float64(b.N), "live-B/op")
			})
		}
		b.Run(fmt.Sprintf("coldrebuild-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.bld.Build()
			}
		})
	}
}
