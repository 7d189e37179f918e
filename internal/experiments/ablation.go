package experiments

import (
	"fmt"

	"goalrec/internal/eval"
	"goalrec/internal/strategy"
)

// AblationBreadth compares the three readings of the Breadth scoring
// equation (DESIGN.md, experiment A1): overlap with the default reading,
// goal completeness, and popularity correlation for each variant.
func AblationBreadth(env *Env) *Table {
	t := &Table{
		ID:      "A1",
		Title:   fmt.Sprintf("Breadth weighting variants (%s)", env.Dataset.Name),
		Columns: []string{"variant", "overlap vs overlap-weighting", "AvgAvg completeness", "popularity corr"},
	}
	lib := env.Dataset.Library
	ref := env.Lists["breadth"]
	numActions := lib.NumActions()
	for _, w := range []strategy.BreadthWeighting{strategy.Overlap, strategy.Count, strategy.Union} {
		rec := strategy.NewBreadthWeighted(lib, w)
		lists := eval.Collect(rec, env.Inputs, env.Cfg.K)
		tri := eval.Completeness(lib, env.Inputs, lists, env.GoalsOf)
		t.AddRow(w.String(),
			eval.OverlapAtK(lists, ref, env.Cfg.K),
			tri.AvgAvg,
			eval.PopularityCorrelation(env.Inputs, lists, numActions, 20))
	}
	return t
}

// AblationBestMatch compares Best Match under the four distance metrics
// (DESIGN.md, experiment A2).
func AblationBestMatch(env *Env) *Table {
	t := &Table{
		ID:      "A2",
		Title:   fmt.Sprintf("Best Match distance metrics (%s)", env.Dataset.Name),
		Columns: []string{"metric", "overlap vs cosine", "AvgAvg completeness", "avg TPR top-10"},
	}
	lib := env.Dataset.Library
	ref := env.Lists["best-match"]
	hidden := env.HiddenSets()
	for _, m := range []strategy.Metric{
		strategy.Cosine, strategy.Euclidean, strategy.Manhattan, strategy.JaccardDist,
	} {
		rec := strategy.NewBestMatchMetric(lib, m)
		lists := eval.Collect(rec, env.Inputs, env.Cfg.K)
		tri := eval.Completeness(lib, env.Inputs, lists, env.GoalsOf)
		t.AddRow(m.String(),
			eval.OverlapAtK(lists, ref, env.Cfg.K),
			tri.AvgAvg,
			eval.AverageTPR(lists, hidden))
	}
	return t
}
