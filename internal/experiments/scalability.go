package experiments

import (
	"fmt"
	"time"

	"goalrec/internal/core"
	"goalrec/internal/strategy"
	"goalrec/internal/xrand"
)

// ScalabilityPoint is one cell of Figure 7: the mean per-query latency of
// one strategy on one synthetic library.
type ScalabilityPoint struct {
	Implementations int
	Connectivity    float64
	Method          string
	MeanLatency     time.Duration
	// Prune carries a Focus cell's block-max scan counters when the swept
	// library is size-sorted (the layout on which Focus scans); nil otherwise.
	Prune *strategy.PruneStatsSnapshot
	// Cache carries the decoded-block cache counters for the block-cache/*
	// cells that ran with a cache enabled; nil otherwise.
	Cache *core.BlockCacheStats
}

// ScalabilityConfig parameterizes the Figure 7 sweep.
type ScalabilityConfig struct {
	// Sizes lists the library sizes (implementation counts) to sweep.
	Sizes []int
	// Actions fixes the action space; connectivity grows with Sizes when
	// the action space is fixed, mirroring the paper's observation that
	// connectivity, not raw size, drives the cost.
	Actions int
	// MeanImplLen is the implementation length used in the sweep.
	MeanImplLen float64
	// Queries is the number of query activities timed per cell.
	Queries int
	// ActivityLen is the query activity size.
	ActivityLen int
	// Seed drives generation.
	Seed uint64
	// ImpactOrdering re-lays-out each swept library in impact order before
	// timing — the size-sorted layout on which Focus takes the block-max
	// scan, whose counters the Focus cells then carry.
	ImpactOrdering bool
}

func (c *ScalabilityConfig) fill() {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{2000, 8000, 32000}
	}
	if c.Actions <= 0 {
		c.Actions = 2000
	}
	if c.MeanImplLen <= 0 {
		c.MeanImplLen = 8
	}
	if c.Queries <= 0 {
		c.Queries = 50
	}
	if c.ActivityLen <= 0 {
		c.ActivityLen = 5
	}
}

// scalabilityLibrary builds a synthetic library with the requested size over
// a fixed action space.
func scalabilityLibrary(cfg ScalabilityConfig, size int, rng *xrand.RNG) *core.Library {
	b := core.NewBuilder(size, int(cfg.MeanImplLen))
	pop := xrand.NewZipf(rng.Split(), cfg.Actions, 0.6)
	for i := 0; i < size; i++ {
		n := 2 + rng.Poisson(cfg.MeanImplLen-2)
		if n > cfg.Actions {
			n = cfg.Actions
		}
		acts := make([]core.ActionID, n)
		for j := range acts {
			acts[j] = core.ActionID(pop.Next())
		}
		if _, err := b.Add(core.GoalID(i/2), acts); err != nil {
			panic(err) // unreachable: n >= 2 and ids are non-negative
		}
	}
	return b.Build()
}

// Scalability runs the Figure 7 sweep and returns one point per
// (size, strategy) cell.
func Scalability(cfg ScalabilityConfig) []ScalabilityPoint {
	cfg.fill()
	rng := xrand.New(cfg.Seed)
	var points []ScalabilityPoint
	for _, size := range cfg.Sizes {
		lib := scalabilityLibrary(cfg, size, rng.Split())
		if cfg.ImpactOrdering {
			lib, _ = core.ImpactOrder(lib)
		}
		conn := lib.Stats().Connectivity
		queries := make([][]core.ActionID, cfg.Queries)
		qrng := rng.Split()
		for i := range queries {
			queries[i] = toActions(qrng.SampleInt32(int32(cfg.Actions), cfg.ActivityLen))
		}
		for _, mk := range []func() strategy.Recommender{
			func() strategy.Recommender { return strategy.NewFocus(lib, strategy.Completeness) },
			func() strategy.Recommender { return strategy.NewFocus(lib, strategy.Closeness) },
			func() strategy.Recommender { return strategy.NewBreadth(lib) },
			func() strategy.Recommender { return strategy.NewBestMatch(lib) },
		} {
			rec := mk()
			var stats *strategy.PruneStats
			if f, ok := rec.(*strategy.Focus); ok && lib.ImplLenSorted() {
				stats = new(strategy.PruneStats)
				f.CountInto(stats)
			}
			start := time.Now()
			for _, q := range queries {
				rec.Recommend(q, 10)
			}
			p := ScalabilityPoint{
				Implementations: size,
				Connectivity:    conn,
				Method:          rec.Name(),
				MeanLatency:     time.Since(start) / time.Duration(len(queries)),
			}
			if stats != nil {
				snap := stats.Snapshot()
				p.Prune = &snap
			}
			points = append(points, p)
		}
	}
	return points
}

// toActions converts raw sampled ids into action ids.
func toActions(s []int32) []core.ActionID {
	out := make([]core.ActionID, len(s))
	for i, v := range s {
		out[i] = core.ActionID(v)
	}
	return out
}

// Figure7 renders the scalability sweep as a table: one row per
// (implementations, method) cell.
func Figure7(cfg ScalabilityConfig) *Table {
	return Figure7Table(Scalability(cfg))
}

// Figure7Table renders already-computed sweep points, so callers that also
// export the points (e.g. -bench-json) run the sweep only once.
func Figure7Table(points []ScalabilityPoint) *Table {
	t := &Table{
		ID:      "F7",
		Title:   "per-query latency vs library size and connectivity",
		Columns: []string{"implementations", "connectivity", "method", "mean latency"},
	}
	for _, p := range points {
		t.AddRow(fmt.Sprintf("%d", p.Implementations),
			fmt.Sprintf("%.1f", p.Connectivity), p.Method, p.MeanLatency.String())
	}
	return t
}

// MethodLatency (experiment E2) measures the mean per-query latency of every
// method on a prepared dataset environment — the paper's Section 6.2 "time
// efficiency on the two datasets" view, including the baselines for context.
// Queries run single-threaded so numbers are comparable across methods.
func MethodLatency(env *Env) *Table {
	t := &Table{
		ID:      "E2",
		Title:   fmt.Sprintf("mean per-query latency on the prepared dataset (%s)", env.Dataset.Name),
		Columns: []string{"method", "mean latency", "queries"},
	}
	inputs := env.Inputs
	if len(inputs) == 0 {
		t.AddRow("(no evaluation users)")
		return t
	}
	for _, name := range append(env.GoalMethods(), env.BaselineMethods()...) {
		rec := env.Methods[name].Rec
		start := time.Now()
		for _, h := range inputs {
			rec.Recommend(h, env.Cfg.K)
		}
		mean := time.Since(start) / time.Duration(len(inputs))
		t.AddRow(name, mean.String(), fmt.Sprintf("%d", len(inputs)))
	}
	return t
}

// ConnectivitySweep complements Figure 7 with the paper's second axis: fixed
// library size, growing connectivity (shrinking action space).
func ConnectivitySweep(size int, actionSpaces []int, seed uint64) *Table {
	t := &Table{
		ID:      "F7b",
		Title:   fmt.Sprintf("per-query latency vs connectivity at %d implementations", size),
		Columns: []string{"actions", "connectivity", "method", "mean latency"},
	}
	for _, actions := range actionSpaces {
		cfg := ScalabilityConfig{Sizes: []int{size}, Actions: actions, Seed: seed}
		for _, p := range Scalability(cfg) {
			t.AddRow(fmt.Sprintf("%d", actions),
				fmt.Sprintf("%.1f", p.Connectivity), p.Method, p.MeanLatency.String())
		}
	}
	return t
}
