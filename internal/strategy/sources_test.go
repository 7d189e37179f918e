package strategy

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"goalrec/internal/core"
	"goalrec/internal/intset"
	"goalrec/internal/testlib"
)

// The one equivalence table of the package: every strategy, through every
// source a ranking can come from, against the naive oracle of oracle_test.go,
// byte-equal on (action, score). The sources are the counter kernel, the
// CounterView shim the benchmark's traced rungs time, and 1/2/3-shard
// partials merged by the gather functions. The drivers feed each library as
// built, behind a snapshot image and extended over a mapped base
// (testLayouts).

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

// shards cuts lib into n shards. The one shard of n = 1 is lib itself, not
// a flat cut of it, so the partials also read rows in lib's own layout: two
// runs on an extended snapshot.
func (x *sourceFixture) shards(t *testing.T, n int) []shardPart {
	t.Helper()
	if n == 1 && x.parts[n] == nil && x.lib.NumImplementations() > 0 {
		x.parts[n] = []shardPart{{x.lib, 0}}
	}
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

// viewSource scores the fixture's CounterView through RecommendView.
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

func focusCase(m FocusMeasure) strategyCase {
	mk := func(l *core.Library) Recommender { return NewFocus(l, m) }
	c := strategyCase{
		name: NewFocus(nil, m).Name(),
		oracle: func(o *oracleLibrary, h []core.ActionID, k int) []ScoredAction {
			return o.oracleFocus(h, m, k)
		},
		sources: []rankingSource{
			recommendSource("kernel", mk),
			viewSource("view", mk),
		},
	}
	c.sources = append(c.sources, partialSources(func(t *testing.T, parts []shardPart, h []core.ActionID, k int) ([]ScoredAction, bool) {
		if k <= 0 {
			return nil, false // TopEmissions is a bounded top-k
		}
		lists := make([][]FocusEmission, len(parts))
		for i, p := range parts {
			var err error
			if lists[i], err = NewFocus(p.lib, m).TopEmissions(context.Background(), h, k, int64(p.lo)); err != nil {
				t.Fatalf("TopEmissions: %v", err)
			}
		}
		return MergeFocusEmissions(lists, k), true
	})...)
	return c
}

func breadthCase(w BreadthWeighting) strategyCase {
	mk := func(l *core.Library) Recommender { return NewBreadthWeighted(l, w) }
	c := strategyCase{
		name: NewBreadthWeighted(nil, w).Name(),
		oracle: func(o *oracleLibrary, h []core.ActionID, k int) []ScoredAction {
			return o.oracleBreadth(h, w, k)
		},
		sources: []rankingSource{
			recommendSource("kernel", mk),
			viewSource("view", mk),
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

func bestMatchCase(metric Metric) strategyCase {
	mk := func(l *core.Library) Recommender { return NewBestMatchMetric(l, metric) }
	c := strategyCase{
		name: NewBestMatchMetric(nil, metric).Name(),
		oracle: func(o *oracleLibrary, h []core.ActionID, k int) []ScoredAction {
			return o.oracleBestMatch(h, metric, k)
		},
		sources: []rankingSource{
			recommendSource("kernel", mk),
			viewSource("view", mk),
		},
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
		bestMatchCase(Cosine), bestMatchCase(Euclidean),
		bestMatchCase(Manhattan), bestMatchCase(JaccardDist),
	}
}

// checkEverySource is the table's loop over one (library, activity) pair:
// every strategy whose name starts with only ("" = all), at every
// k ∈ {1, 10, |pool|, −1}, through every source, against the oracle.
func checkEverySource(t *testing.T, lib *core.Library, h []core.ActionID, only string) {
	t.Helper()
	hs := intset.FromUnsorted(intset.Clone(h))
	ks := []int{1, 10, -1}
	if pool := len(lib.Candidates(hs)); pool > 1 && pool != 10 {
		ks = append(ks, pool)
	}
	x := &sourceFixture{lib: lib, h: h, view: NewCounterView(lib, h), parts: map[int][]shardPart{}}
	o := newOracle(lib)
	for _, c := range strategyCases() {
		if !strings.HasPrefix(c.name, only) {
			continue
		}
		for _, k := range ks {
			want := c.oracle(o, hs, k)
			for _, src := range c.sources {
				got, ok := src.run(t, x, k)
				if ok && !(len(got) == 0 && len(want) == 0) && !reflect.DeepEqual(got, want) {
					t.Fatalf("%s via %s diverged from the oracle (k=%d, h=%v):\ngot  %v\nwant %v",
						c.name, src.name, k, h, got, want)
				}
			}
		}
	}
}

// mappedLibrary round-trips lib through a snapshot image.
func mappedLibrary(t *testing.T, lib *core.Library) *core.Library {
	t.Helper()
	var buf bytes.Buffer
	if err := core.WriteSnapshot(&buf, lib, nil, core.SnapshotOptions{}); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	snap, err := core.OpenSnapshotBytes(buf.Bytes())
	if err != nil {
		t.Fatalf("OpenSnapshotBytes: %v", err)
	}
	return snap.Library()
}

// testLayouts returns lib in the three forms a served snapshot comes in: as
// built; behind a snapshot image (the mmap form, whose rows are views over
// the image); and extended (extendedLibrary), whose touched action rows read
// as two runs.
func testLayouts(t *testing.T, lib *core.Library) []*core.Library {
	t.Helper()
	return []*core.Library{lib, mappedLibrary(t, lib), extendedLibrary(t, lib)}
}

// extendedLibrary rebuilds lib as an ingesting engine serves it: the first
// half of its implementations is a mapped flat base, and the rest is
// appended through a DynamicLibrary that never compacts, in two publishes,
// so every action row the appends touch is a base run followed by a tail run
// that grew across an epoch.
func extendedLibrary(t *testing.T, lib *core.Library) *core.Library {
	t.Helper()
	n := lib.NumImplementations()
	b := core.NewBuilder(n/2, 4)
	for p := 0; p < n/2; p++ {
		impl := lib.Implementation(core.ImplID(p))
		if _, err := b.Add(impl.Goal, impl.Actions); err != nil {
			t.Fatal(err)
		}
	}
	d := core.NewDynamicLibrary()
	d.SetCompactionThreshold(math.MaxInt)
	d.Swap(mappedLibrary(t, b.Build()))
	for p := n / 2; p < n; p++ {
		impl := lib.Implementation(core.ImplID(p))
		if _, err := d.Add(impl.Goal, impl.Actions); err != nil {
			t.Fatal(err)
		}
		if p == (n/2+n)/2 {
			d.Snapshot()
		}
	}
	ext := d.Snapshot()
	if ext.TailImplementations() != n-n/2 {
		t.Fatalf("%d of %d implementations in the tail, want %d", ext.TailImplementations(), n, n-n/2)
	}
	return ext
}

// TestSourcesMatchOracle drives the source table over random libraries with
// goals of every kind the GA-idx tells apart, as built and mapped.
func TestSourcesMatchOracle(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 12; trial++ {
		n := 1 + r.Intn(1500)
		actionSpace := 2 + r.Intn(24)
		for _, lib := range testLayouts(t, testlib.MixedLibrary(r, n, actionSpace, 20, 9)) {
			for q := 0; q < 3; q++ {
				checkEverySource(t, lib, testlib.RandomActivity(r, actionSpace, 6), "")
			}
		}
	}
}

// wideLibrary adds to lib two implementations over the actions [0, w),
// 256 ≤ w < 304 — one of every action, one of a random part of them — and
// returns it with an activity holding at least 256 of them, so |A_p ∩ H|
// passes what a byte counter holds and the kernel counts in int32.
func wideLibrary(t *testing.T, r *rand.Rand, lib *core.Library) (*core.Library, []core.ActionID) {
	t.Helper()
	w := 256 + r.Intn(48)
	b := core.NewBuilder(lib.NumImplementations()+2, 8)
	for p := 0; p < lib.NumImplementations(); p++ {
		impl := lib.Implementation(core.ImplID(p))
		if _, err := b.Add(impl.Goal, impl.Actions); err != nil {
			t.Fatal(err)
		}
	}
	perm := r.Perm(w)
	all := make([]core.ActionID, w)
	for i, a := range perm {
		all[i] = core.ActionID(a)
	}
	for _, acts := range [][]core.ActionID{all, all[:1+r.Intn(w)]} {
		if _, err := b.Add(core.GoalID(r.Intn(lib.NumGoals()+1)), acts); err != nil {
			t.Fatal(err)
		}
	}
	r.Shuffle(w, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	h := make([]core.ActionID, 256+r.Intn(w-255))
	for i := range h {
		h[i] = core.ActionID(perm[i])
	}
	return b.Build(), h
}

// TestWideCountsMatchOracle drives the source table — every strategy and
// source, the Focus and Breadth kernels and their shard partials among them
// — over libraries with an implementation of 256 or more actions, queried
// with 256 or more of them: counts a byte counter would wrap.
func TestWideCountsMatchOracle(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	for trial := 0; trial < 3; trial++ {
		base := testlib.MixedLibrary(r, 1+r.Intn(300), 2+r.Intn(300), 20, 9)
		lib, h := wideLibrary(t, r, base)
		if lib.MaxImplLen() < 256 {
			t.Fatalf("longest implementation %d, want 256 or more", lib.MaxImplLen())
		}
		for _, l := range testLayouts(t, lib) {
			checkEverySource(t, l, h, "")
		}
	}
}

// goalKinds sorts lib's goals with implementations into the three kinds the
// GA-idx tells apart: one implementation, several action-disjoint ones
// (neither stores a GA row), and several sharing an action (stores one).
func goalKinds(lib *core.Library) (single, disjoint, shared []core.GoalID) {
	for g := core.GoalID(0); int(g) < lib.NumGoals(); g++ {
		stored, _ := lib.StoredGoalRow(g)
		switch n := len(lib.ImplsOfGoal(g)); {
		case n == 0:
		case len(stored) > 0:
			shared = append(shared, g)
		case n == 1:
			single = append(single, g)
		default:
			disjoint = append(disjoint, g)
		}
	}
	return single, disjoint, shared
}

// TestMixedLibraryKinds: the oracle tables' generator yields every kind of
// goal, however small the library.
func TestMixedLibraryKinds(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		lib := testlib.MixedLibrary(r, 1+r.Intn(40), 2+r.Intn(30), 15, 8)
		if single, disjoint, shared := goalKinds(lib); len(single) == 0 || len(disjoint) == 0 || len(shared) == 0 {
			t.Fatalf("trial %d: %d single, %d disjoint, %d sharing goals", trial, len(single), len(disjoint), len(shared))
		}
	}
}

// TestBestMatchThroughIngest: every Best Match metric, from the kernel, the
// view shim and shard partials, on each snapshot as built and behind an
// image, ranks as the naive oracle does through a history that moves goals
// between the kinds — an ingest that makes a disjoint goal share an action,
// one that keeps a disjoint goal disjoint, one that adds a goal — and a
// compaction.
func TestBestMatchThroughIngest(t *testing.T) {
	r := rand.New(rand.NewSource(49))
	const actionSpace = 40
	d := core.NewDynamicLibrary()
	d.Swap(testlib.MixedLibrary(r, 12, actionSpace, 6, 6)) // small enough that 4 appends compact
	d.SetCompactionThreshold(100)
	_, disjoint, _ := goalKinds(d.Snapshot())
	if len(disjoint) < 2 {
		t.Fatalf("%d disjoint goals, want 2", len(disjoint))
	}
	overlap, kept := disjoint[0], disjoint[1]
	rowOf := func(g core.GoalID) []core.ActionID {
		acts, _ := d.Snapshot().ActionsOfGoal(g)
		return acts
	}
	keptRow := rowOf(kept)
	fresh := core.ActionID(0)
	for intset.Contains(keptRow, fresh) {
		fresh++
	}
	newGoal := core.GoalID(d.Snapshot().NumGoals())
	for _, step := range []struct {
		name    string
		impl    core.Implementation
		compact bool
		stores  core.GoalID // a goal that must store its GA row after the step
		walks   core.GoalID // a goal that must store none
	}{
		{"disjoint goal comes to share an action", core.Implementation{Goal: overlap, Actions: rowOf(overlap)[:1]}, false, overlap, kept},
		{"disjoint goal stays disjoint", core.Implementation{Goal: kept, Actions: []core.ActionID{fresh}}, false, overlap, kept},
		{"new goal", core.Implementation{Goal: newGoal, Actions: []core.ActionID{1, 2, 3}}, false, overlap, newGoal},
		{"compaction", core.Implementation{Goal: overlap, Actions: rowOf(overlap)[:1]}, true, overlap, kept},
	} {
		if step.compact {
			d.SetCompactionThreshold(1)
		}
		if _, err := d.Add(step.impl.Goal, step.impl.Actions); err != nil {
			t.Fatal(err)
		}
		lib := d.Snapshot()
		if flat := lib.TailImplementations() == 0; flat != step.compact {
			t.Fatalf("%s: %d implementations in the tail", step.name, lib.TailImplementations())
		}
		if acts, _ := lib.StoredGoalRow(step.stores); len(acts) == 0 {
			t.Fatalf("%s: goal %d stores no GA row", step.name, step.stores)
		}
		if acts, _ := lib.StoredGoalRow(step.walks); len(acts) != 0 {
			t.Fatalf("%s: goal %d stores the GA row %v", step.name, step.walks, acts)
		}
		for _, l := range testLayouts(t, lib) {
			for q := 0; q < 4; q++ {
				h := append(testlib.RandomActivity(r, actionSpace, 4), step.impl.Actions[0])
				checkEverySource(t, l, h, "best-match")
			}
		}
	}
}
