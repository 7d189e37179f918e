package experiments

import (
	"testing"

	"goalrec/internal/core"
	"goalrec/internal/strategy"
	"goalrec/internal/xrand"
)

// benchFocus1M replicates the 1M-implementation Figure 7 cell on one Focus
// measure — the steady-state view of the cell the sweep times end to end, for
// profiling the counter kernel in isolation.
func benchFocus1M(b *testing.B, measure strategy.FocusMeasure) {
	cfg := ScalabilityConfig{Sizes: []int{1000000}, Actions: 10000, Seed: 1}
	cfg.fill()
	rng := xrand.New(cfg.Seed)
	lib := scalabilityLibrary(cfg, 1000000, rng.Split())
	queries := make([][]core.ActionID, cfg.Queries)
	qrng := rng.Split()
	for i := range queries {
		queries[i] = toActions(qrng.SampleInt32(int32(cfg.Actions), cfg.ActivityLen))
	}
	f := strategy.NewFocus(lib, measure)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Recommend(queries[i%len(queries)], 10)
	}
}

func BenchmarkFocusCl1M(b *testing.B)  { benchFocus1M(b, strategy.Closeness) }
func BenchmarkFocusCmp1M(b *testing.B) { benchFocus1M(b, strategy.Completeness) }
