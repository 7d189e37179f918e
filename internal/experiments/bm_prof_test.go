package experiments

import (
	"testing"

	"goalrec/internal/core"
	"goalrec/internal/strategy"
	"goalrec/internal/xrand"
)

// BenchmarkBM1M replicates the 1M-implementation Figure 7 cell for Best
// Match — the steady-state twin of the sweep's best-match cells, where the
// 500k-goal space keeps the GA-idx goal-major path in charge.
func BenchmarkBM1M(b *testing.B) {
	cfg := ScalabilityConfig{Sizes: []int{1000000}, Actions: 10000, Seed: 1}
	cfg.fill()
	rng := xrand.New(cfg.Seed)
	lib := scalabilityLibrary(cfg, 1000000, rng.Split())
	queries := make([][]core.ActionID, cfg.Queries)
	qrng := rng.Split()
	for i := range queries {
		queries[i] = toActions(qrng.SampleInt32(int32(cfg.Actions), cfg.ActivityLen))
	}
	bm := strategy.NewBestMatch(lib)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm.Recommend(queries[i%len(queries)], 10)
	}
}
