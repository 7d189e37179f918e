package experiments

import (
	"testing"

	"goalrec/internal/core"
	"goalrec/internal/strategy"
	"goalrec/internal/xrand"
)

// benchFocus1M replicates the 1M-implementation Figure 7 cell on one Focus
// measure, on the plain layout (counter kernel) or the impact-ordered one
// (block-max scan) — the steady-state view of the cell the sweep times end to
// end, for profiling the two rank sources in isolation.
func benchFocus1M(b *testing.B, measure strategy.FocusMeasure, impactOrdered bool) {
	cfg := ScalabilityConfig{Sizes: []int{1000000}, Actions: 10000, Seed: 1}
	cfg.fill()
	rng := xrand.New(cfg.Seed)
	lib := scalabilityLibrary(cfg, 1000000, rng.Split())
	if impactOrdered {
		lib, _ = core.ImpactOrder(lib)
	}
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

func BenchmarkImpactOrderedFocusCl1M(b *testing.B)  { benchFocus1M(b, strategy.Closeness, true) }
func BenchmarkPlainFocusCl1M(b *testing.B)          { benchFocus1M(b, strategy.Closeness, false) }
func BenchmarkImpactOrderedFocusCmp1M(b *testing.B) { benchFocus1M(b, strategy.Completeness, true) }
func BenchmarkPlainFocusCmp1M(b *testing.B)         { benchFocus1M(b, strategy.Completeness, false) }
