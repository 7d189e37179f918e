package strategy

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"goalrec/internal/core"
	"goalrec/internal/intset"
	"goalrec/internal/vectorspace"
)

// The one equivalence table of the package: every strategy, through every
// source a ranking can come from, against the naive oracle of oracle_test.go,
// byte-equal on (action, score). The sources are the counter kernel
// (sequential and forced-sharded), a CounterView, and 1/2/3-shard partials
// merged by the gather functions; which Focus rank source serves a
// from-scratch query — the kernel or the block-max scan — follows from the
// library's layout, so the drivers feed plain, impact-ordered and
// impact-ordered mapped libraries (testLayouts) and the Focus rows
// assert, through a PruneStats sink, that the scan ran exactly when
// (lib.ImplLenSorted(), k > 0) says it should.

// rankingSource produces one strategy's ranking of (h, k) over lib; ok is
// false where the source's API does not take that k.
type rankingSource struct {
	name string
	run  func(t *testing.T, x *sourceFixture, k int) (got []ScoredAction, ok bool)
}

// strategyCase is one strategy configuration with its oracle and sources.
type strategyCase struct {
	name    string
	oracle  func(o *oracleLibrary, h []core.ActionID, k int) []ScoredAction
	sources []rankingSource
}

// sourceFixture is what every source of one table run shares.
type sourceFixture struct {
	lib   *core.Library
	h     []core.ActionID
	view  *CounterView        // the view the view sources score
	parts map[int][]shardPart // lib cut into n contiguous shards, on first use
}

type shardPart struct {
	lib *core.Library
	lo  int
}

func (x *sourceFixture) shards(t *testing.T, n int) []shardPart {
	t.Helper()
	if x.parts[n] == nil {
		for _, r := range splitRanges(x.lib.NumImplementations(), n) {
			sub, err := core.PartitionRange(x.lib, r[0], r[1])
			if err != nil {
				t.Fatalf("PartitionRange(%d, %d): %v", r[0], r[1], err)
			}
			x.parts[n] = append(x.parts[n], shardPart{sub, r[0]})
		}
	}
	return x.parts[n]
}

// splitRanges cuts [0, n) into at most parts contiguous ranges.
func splitRanges(n, parts int) [][2]int {
	out := make([][2]int, 0, parts)
	chunk := (n + parts - 1) / parts
	for lo := 0; lo < n; lo += chunk {
		out = append(out, [2]int{lo, min(lo+chunk, n)})
	}
	return out
}

// recommendSource runs a from-scratch query on a fresh recommender.
func recommendSource(name string, mk func(*core.Library) Recommender) rankingSource {
	return rankingSource{name, func(_ *testing.T, x *sourceFixture, k int) ([]ScoredAction, bool) {
		return mk(x.lib).Recommend(x.h, k), true
	}}
}

// viewSource scores the fixture's CounterView.
func viewSource(name string, mk func(*core.Library) Recommender) rankingSource {
	return rankingSource{name, func(t *testing.T, x *sourceFixture, k int) ([]ScoredAction, bool) {
		got, err := RecommendView(context.Background(), mk(x.lib), x.view, k)
		if err != nil {
			t.Fatalf("RecommendView: %v", err)
		}
		return got, true
	}}
}

// partialSources is the 1/2/3-shard partial → merge family; gather computes
// and merges one shard set's partials.
func partialSources(gather func(t *testing.T, parts []shardPart, h []core.ActionID, k int) ([]ScoredAction, bool)) []rankingSource {
	var out []rankingSource
	for n := 1; n <= 3; n++ {
		out = append(out, rankingSource{fmt.Sprintf("partials/%d", n),
			func(t *testing.T, x *sourceFixture, k int) ([]ScoredAction, bool) {
				return gather(t, x.shards(t, n), x.h, k)
			}})
	}
	return out
}

// scanMustFollowLayout runs query on a Focus counting into a fresh sink and
// asserts the selection rule: the block-max scan considered blocks exactly
// when the library is size-sorted, k is bounded and H has postings.
func scanMustFollowLayout(t *testing.T, f *Focus, lib *core.Library, h []core.ActionID, k int, query func()) {
	t.Helper()
	var sink PruneStats
	f.CountInto(&sink)
	query()
	want := lib.ImplLenSorted() && k > 0 && lib.OverlapStream(intset.FromUnsorted(intset.Clone(h))) > 0
	if got := sink.Snapshot().BlocksTotal > 0; got != want {
		t.Fatalf("%s: block-max scan engaged = %v, want %v (size-sorted=%v, k=%d): %+v",
			f.Name(), got, want, lib.ImplLenSorted(), k, sink.Snapshot())
	}
}

func focusCase(m FocusMeasure) strategyCase {
	kernel := func(name string, workers int) rankingSource {
		return rankingSource{name, func(t *testing.T, x *sourceFixture, k int) (got []ScoredAction, ok bool) {
			f := NewFocus(x.lib, m)
			f.SetConcurrency(workers, 1)
			scanMustFollowLayout(t, f, x.lib, x.h, k, func() { got = f.Recommend(x.h, k) })
			return got, true
		}}
	}
	c := strategyCase{
		name: NewFocus(nil, m).Name(),
		oracle: func(o *oracleLibrary, h []core.ActionID, k int) []ScoredAction {
			return o.oracleFocus(h, m, k)
		},
		sources: []rankingSource{
			kernel("sequential", 1),
			kernel("sharded", 4),
			viewSource("view", func(l *core.Library) Recommender { return NewFocus(l, m) }),
		},
	}
	c.sources = append(c.sources, partialSources(func(t *testing.T, parts []shardPart, h []core.ActionID, k int) ([]ScoredAction, bool) {
		if k <= 0 {
			return nil, false // TopEmissions is a bounded top-k
		}
		lists := make([][]FocusEmission, len(parts))
		for i, p := range parts {
			f := NewFocus(p.lib, m)
			scanMustFollowLayout(t, f, p.lib, h, k, func() {
				var err error
				if lists[i], err = f.TopEmissions(context.Background(), h, k, int64(p.lo), nil); err != nil {
					t.Fatalf("TopEmissions: %v", err)
				}
			})
		}
		return MergeFocusEmissions(lists, k), true
	})...)
	return c
}

func breadthCase(w BreadthWeighting) strategyCase {
	mk := func(workers int) func(*core.Library) Recommender {
		return func(l *core.Library) Recommender {
			b := NewBreadthWeighted(l, w)
			b.SetConcurrency(workers, 1)
			return b
		}
	}
	c := strategyCase{
		name: NewBreadthWeighted(nil, w).Name(),
		oracle: func(o *oracleLibrary, h []core.ActionID, k int) []ScoredAction {
			return o.oracleBreadth(h, w, k)
		},
		sources: []rankingSource{
			recommendSource("sequential", mk(1)),
			recommendSource("sharded", mk(4)),
			viewSource("view", mk(1)),
		},
	}
	c.sources = append(c.sources, partialSources(func(t *testing.T, parts []shardPart, h []core.ActionID, k int) ([]ScoredAction, bool) {
		partials := make([]*BreadthPartial, len(parts))
		for i, p := range parts {
			var err error
			if partials[i], err = NewBreadthWeighted(p.lib, w).ShardPartial(context.Background(), h); err != nil {
				t.Fatalf("ShardPartial: %v", err)
			}
		}
		return MergeBreadthPartials(partials, k), true
	})...)
	return c
}

func bestMatchCase(metric vectorspace.Metric) strategyCase {
	mk := func(mode bmMode, workers int) func(*core.Library) Recommender {
		return func(l *core.Library) Recommender {
			bm := NewBestMatchMetric(l, metric)
			bm.mode, bm.maxWorkers, bm.shardMin = mode, workers, 1
			return bm
		}
	}
	c := strategyCase{
		name: NewBestMatchMetric(nil, metric).Name(),
		oracle: func(o *oracleLibrary, h []core.ActionID, k int) []ScoredAction {
			return o.oracleBestMatch(h, metric, k)
		},
		sources: []rankingSource{
			recommendSource("auto", mk(bmAuto, 1)),
			viewSource("view", mk(bmAuto, 1)),
		},
	}
	if metric == vectorspace.Cosine {
		// The cost model picks one cosine path per query; force each, and
		// the view through each.
		c.sources = append(c.sources,
			recommendSource("candidate-major", mk(bmCandidateMajor, 1)),
			recommendSource("candidate-major-sharded", mk(bmCandidateMajor, 4)),
			recommendSource("goal-major", mk(bmGoalMajor, 1)),
			viewSource("view/candidate-major-sharded", mk(bmCandidateMajor, 4)),
			viewSource("view/goal-major", mk(bmGoalMajor, 1)))
	}
	c.sources = append(c.sources, partialSources(func(t *testing.T, parts []shardPart, h []core.ActionID, k int) ([]ScoredAction, bool) {
		ctx := context.Background()
		surveys := make([]*BestMatchSurvey, len(parts))
		for i, p := range parts {
			var err error
			if surveys[i], err = NewBestMatchMetric(p.lib, metric).ShardSurvey(ctx, h); err != nil {
				t.Fatalf("ShardSurvey: %v", err)
			}
		}
		candidates, goalSpace, profile := MergeBestMatchSurveys(surveys)
		vectors := make([]*BestMatchVectors, len(parts))
		for i, p := range parts {
			var err error
			if vectors[i], err = NewBestMatchMetric(p.lib, metric).ShardVectors(ctx, candidates, goalSpace); err != nil {
				t.Fatalf("ShardVectors: %v", err)
			}
		}
		return MergeBestMatchVectors(metric, candidates, goalSpace, profile, vectors, k), true
	})...)
	return c
}

func strategyCases() []strategyCase {
	return []strategyCase{
		focusCase(Completeness), focusCase(Closeness),
		breadthCase(Overlap), breadthCase(Count), breadthCase(Union),
		bestMatchCase(vectorspace.Cosine), bestMatchCase(vectorspace.Euclidean), bestMatchCase(vectorspace.JaccardDist),
	}
}

// checkSources is the table's loop: every strategy whose name starts with
// onlyCase, at every k, through every source whose name starts with
// onlySource, against the oracle.
func checkSources(t *testing.T, x *sourceFixture, ks []int, onlyCase, onlySource string) {
	t.Helper()
	o := newOracle(x.lib)
	hs := intset.FromUnsorted(intset.Clone(x.h))
	for _, c := range strategyCases() {
		if !strings.HasPrefix(c.name, onlyCase) {
			continue
		}
		for _, k := range ks {
			want := c.oracle(o, hs, k)
			for _, src := range c.sources {
				if !strings.HasPrefix(src.name, onlySource) {
					continue
				}
				got, ok := src.run(t, x, k)
				if ok && !(len(got) == 0 && len(want) == 0) && !reflect.DeepEqual(got, want) {
					t.Fatalf("%s via %s diverged from the oracle (k=%d, h=%v, size-sorted=%v):\ngot  %v\nwant %v",
						c.name, src.name, k, x.h, x.lib.ImplLenSorted(), got, want)
				}
			}
		}
	}
}

// checkEverySource drives the whole table over one (library, activity) pair
// for k ∈ {1, 10, |pool|, −1} and the strategies whose name starts with only
// ("" = all).
func checkEverySource(t *testing.T, lib *core.Library, h []core.ActionID, only string) {
	t.Helper()
	ks := []int{1, 10, -1}
	if pool := len(lib.Candidates(intset.FromUnsorted(intset.Clone(h)))); pool > 1 && pool != 10 {
		ks = append(ks, pool)
	}
	x := &sourceFixture{lib: lib, h: h, view: NewCounterView(lib, h), parts: map[int][]shardPart{}}
	checkSources(t, x, ks, only, "")
}

// checkViewEquiv drives the table's view sources over a view the caller has
// been mutating — the op-stream tests' one ranking invariant.
func checkViewEquiv(t *testing.T, lib *core.Library, v *CounterView, h []core.ActionID, k int) {
	t.Helper()
	checkSources(t, &sourceFixture{lib: lib, h: h, view: v}, []int{k}, "", "view")
}

// testLayouts returns lib in the three layouts a served snapshot comes in:
// as built, impact-ordered, and impact-ordered behind a snapshot image (the
// mmap form, whose rows are views over the image).
func testLayouts(t *testing.T, lib *core.Library) []*core.Library {
	t.Helper()
	impact, _ := core.ImpactOrder(lib)
	if !impact.ImplLenSorted() {
		t.Fatal("impact-ordered library does not report a size-sorted layout")
	}
	return []*core.Library{lib, impact, mappedLibrary(t, impact)}
}
