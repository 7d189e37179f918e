package strategy

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"goalrec/internal/core"
	"goalrec/internal/intset"
	"goalrec/internal/testlib"
)

// cancelAfterPolls is a deterministic cancellation source: its Err returns
// nil for the first n polls and context.Canceled afterwards, and its Done
// channel is non-nil (so the strategies' tickers engage) but never closes.
// It lets a test cancel a query exactly at a scoring checkpoint, with no
// timing dependence.
type cancelAfterPolls struct {
	n     int64
	polls atomic.Int64
	done  chan struct{}
}

func newCancelAfterPolls(n int64) *cancelAfterPolls {
	return &cancelAfterPolls{n: n, done: make(chan struct{})}
}

func (c *cancelAfterPolls) Deadline() (time.Time, bool)   { return time.Time{}, false }
func (c *cancelAfterPolls) Done() <-chan struct{}         { return c.done }
func (c *cancelAfterPolls) Value(interface{}) interface{} { return nil }
func (c *cancelAfterPolls) Err() error {
	if c.polls.Add(1) > c.n {
		return context.Canceled
	}
	return nil
}

// ctxTestRecommenders builds every context-aware recommender variant over
// lib: the four strategies, Best Match with a cosine and an L1 metric.
func ctxTestRecommenders(lib *core.Library) map[string]ContextRecommender {
	return map[string]ContextRecommender{
		"focus-cmp":             NewFocus(lib, Completeness),
		"focus-cl":              NewFocus(lib, Closeness),
		"breadth":               NewBreadth(lib),
		"best-match-goal-major": NewBestMatch(lib),
		"best-match-manhattan":  NewBestMatchMetric(lib, Manhattan),
		"cached-breadth":        NewCached(NewBreadth(lib), 16),
	}
}

// ctxBigLibrary is sized so every scoring path crosses at least one
// checkInterval checkpoint: |IS(H)| and the candidate pool both exceed
// checkInterval.
func ctxBigLibrary(t testing.TB) (*core.Library, []core.ActionID) {
	t.Helper()
	lib := benchLibrary(100000, 5000, 3)
	q := benchQueries(5000, 1, 10, 4)[0]
	if n := len(lib.ImplementationSpace(q)); n <= checkInterval {
		t.Fatalf("implementation space too small for checkpoint coverage: %d", n)
	}
	if n := len(lib.Candidates(q)); n <= checkInterval {
		t.Fatalf("candidate pool too small for checkpoint coverage: %d", n)
	}
	return lib, q
}

func TestRecommendContextMatchesRecommend(t *testing.T) {
	lib := benchLibrary(20000, 500, 3)
	queries := benchQueries(500, 8, 5, 4)
	for name, rec := range ctxTestRecommenders(lib) {
		t.Run(name, func(t *testing.T) {
			for _, q := range queries {
				want := rec.Recommend(q, 10)
				got, err := rec.RecommendContext(context.Background(), q, 10)
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if len(got) != len(want) {
					t.Fatalf("len = %d, want %d", len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("result %d = %+v, want %+v", i, got[i], want[i])
					}
				}
			}
		})
	}
}

func TestRecommendContextPreCanceled(t *testing.T) {
	lib := benchLibrary(2000, 200, 3)
	q := benchQueries(200, 1, 5, 4)[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, rec := range ctxTestRecommenders(lib) {
		t.Run(name, func(t *testing.T) {
			got, err := rec.RecommendContext(ctx, q, 10)
			if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
			}
			if name == "cached-breadth" {
				return // hit-path may legitimately serve from cache
			}
			switch name {
			case "focus-cmp", "focus-cl":
				// Focus documents a partial-prefix return on cancellation.
			default:
				if got != nil {
					t.Errorf("canceled query returned results: %d", len(got))
				}
			}
		})
	}
}

func TestRecommendContextDeadlineExceeded(t *testing.T) {
	lib := benchLibrary(2000, 200, 3)
	q := benchQueries(200, 1, 5, 4)[0]
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	rec := NewBestMatch(lib)
	if _, err := rec.RecommendContext(ctx, q, 10); !errors.Is(err, context.DeadlineExceeded) || !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.DeadlineExceeded", err)
	}
}

// TestRecommendContextAbortsMidQuery cancels exactly at the first loop
// checkpoint (the entry check consumes the first poll) and requires every
// scoring path to abort with ErrCanceled rather than run to completion.
func TestRecommendContextAbortsMidQuery(t *testing.T) {
	lib, q := ctxBigLibrary(t)
	for name, rec := range ctxTestRecommenders(lib) {
		t.Run(name, func(t *testing.T) {
			ctx := newCancelAfterPolls(1)
			got, err := rec.RecommendContext(ctx, q, 10)
			if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
			}
			switch name {
			case "focus-cmp", "focus-cl", "cached-breadth":
				// Focus may return a valid partial prefix; Cached returns
				// whatever its inner aborted with.
			default:
				if got != nil {
					t.Errorf("aborted query returned %d results", len(got))
				}
			}
			if polls := ctx.polls.Load(); polls < 2 {
				t.Fatalf("query aborted before reaching a loop checkpoint (polls = %d)", polls)
			}
		})
	}
}

// TestRecommendContextScratchCleanAfterAbort pins that an aborted query
// leaves the pooled scratch state clean: the next (uncanceled) query on the
// same recommender instance must be bit-identical to a fresh instance.
func TestRecommendContextScratchCleanAfterAbort(t *testing.T) {
	lib, q := ctxBigLibrary(t)
	for name, rec := range ctxTestRecommenders(lib) {
		t.Run(name, func(t *testing.T) {
			if _, err := rec.RecommendContext(newCancelAfterPolls(1), q, 10); !errors.Is(err, ErrCanceled) {
				t.Fatalf("abort did not trigger: %v", err)
			}
			got, err := rec.RecommendContext(context.Background(), q, 10)
			if err != nil {
				t.Fatal(err)
			}
			fresh := ctxTestRecommenders(lib)[name].Recommend(q, 10)
			if fmt.Sprint(got) != fmt.Sprint(fresh) {
				t.Errorf("post-abort results diverge from a fresh recommender:\n got %v\nwant %v", got, fresh)
			}
		})
	}
}

// TestCachedContextCancellation pins the no-cache-on-abort rule.
func TestCachedContextCancellation(t *testing.T) {
	lib, q := ctxBigLibrary(t)
	c := NewCached(NewBreadth(lib), 16)
	if _, err := c.RecommendContext(newCancelAfterPolls(1), q, 10); !errors.Is(err, ErrCanceled) {
		t.Fatalf("abort did not trigger: %v", err)
	}
	if c.Len() != 0 {
		t.Fatalf("aborted query was cached: %d entries", c.Len())
	}
	want, err := c.RecommendContext(context.Background(), q, 10)
	if err != nil || len(want) == 0 {
		t.Fatalf("complete query failed: %v (%d results)", err, len(want))
	}
	if c.Len() != 1 {
		t.Fatalf("complete query not cached: %d entries", c.Len())
	}
	// A cache hit is served even under an already-canceled context.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err := c.RecommendContext(ctx, q, 10)
	if err != nil {
		t.Fatalf("cache hit returned error: %v", err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("cache hit diverges from cached value")
	}
}

// TestRecommendContextFallback covers recommenders without internal
// checkpoints (the baselines): the context is observed at entry only.
func TestRecommendContextFallback(t *testing.T) {
	inner := &countingRecommender{inner: NewBreadth(benchLibrary(200, 50, 3))}
	if _, err := RecommendContext(context.Background(), inner, []core.ActionID{1, 2}, 5); err != nil {
		t.Fatal(err)
	}
	if inner.calls != 1 {
		t.Fatalf("inner calls = %d, want 1", inner.calls)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RecommendContext(ctx, inner, []core.ActionID{1, 2}, 5); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if inner.calls != 1 {
		t.Fatalf("canceled context still ran the inner recommender (calls = %d)", inner.calls)
	}
}

// TestAbortScratchInvariants hammers the scan strategies and Best Match
// with thousands of mid-scan aborts at varying checkpoint depths and asserts,
// after every abort, that the scratch the aborted query returned to the pool
// is clean in every part: kernel counters zeroed, Breadth's score
// accumulator, touched list and H-membership cleared, Best Match's
// goal-major accumulators zero. On one P that scratch is the one the next
// query takes, whatever its strategy or instance, so dirty scratch would
// corrupt its ranking. A completed query follows each abort and must
// match the oracle — the end-to-end proof that no partial state leaked.
func TestAbortScratchInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	lib := testlib.RandomLibrary(r, 2500, 24, 20, 9)
	o := newOracle(lib)
	// Best Match aborts inside its goal-major pass only when GS(H)'s GA rows
	// cross a checkpoint, which takes far more goals than lib has.
	bmLib := testlib.RandomLibrary(r, 2500, 200, 1500, 9)
	ob := newOracle(bmLib)
	// Breadth polls once per 1 024 implementations it credits, so it aborts
	// with credited scores only when H reaches past 2 048 of them, which
	// takes more implementations than lib has.
	deepLib := testlib.RandomLibrary(rand.New(rand.NewSource(8)), 8000, 24, 20, 9)
	od := newOracle(deepLib)

	// w1: one worker, the sequential kernel every strategy runs.
	t.Run("w1", func(t *testing.T) {
		fc := NewFocus(lib, Closeness)
		br, deep := NewBreadth(lib), NewBreadth(deepLib)
		bms := []*BestMatch{NewBestMatch(bmLib), NewBestMatchMetric(bmLib, Manhattan)}

		// One P, so every query below takes the scratch the one before
		// returned to the pool's per-P slot: used, unless the race detector
		// drops a Put. The oracles allocate enough for GC cycles, which empty
		// the pool, so each round takes used afresh.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var used *scratch
		check := func(i int, name string) {
			s := getScratch()
			defer putScratch(s)
			if s != used && !raceEnabled {
				t.Fatalf("abort %d: %s did not return the scratch it took", i, name)
			}
			for p, c := range s.cnt {
				if c != 0 {
					t.Fatalf("abort %d: %s left counter %d at %d", i, name, p, c)
				}
			}
			for a, in := range s.inH {
				if in {
					t.Fatalf("abort %d: %s left inH[%d] set", i, name, a)
				}
			}
			if len(s.actions) != 0 {
				t.Fatalf("abort %d: %s left Breadth's touched list", i, name)
			}
			for a, v := range s.scores {
				if v != 0 {
					t.Fatalf("abort %d: %s left score[%d] at %v", i, name, a, v)
				}
			}
			for a, v := range s.acc {
				if v != [2]float64{} {
					t.Fatalf("abort %d: %s left acc[%d] at %v", i, name, a, v)
				}
			}
			for a, v := range s.accL1 {
				if v != [2]float64{} {
					t.Fatalf("abort %d: %s left accL1[%d] at %v", i, name, a, v)
				}
			}
		}

		bmAborts := 0
		for i := 0; i < 1500; i++ {
			h := intset.FromUnsorted(testlib.RandomActivity(r, 24, 6))
			polls := int64(1 + i%9)
			used = getScratch()
			putScratch(used)
			fc.RecommendContext(newCancelAfterPolls(polls), h, 6)
			check(i, fc.Name())
			br.RecommendContext(newCancelAfterPolls(polls), h, 6)
			check(i, br.Name())
			deep.RecommendContext(newCancelAfterPolls(int64(1+i%15)), h, 6)
			check(i, deep.Name())
			hb := intset.FromUnsorted(testlib.RandomActivity(r, 200, 6))
			for _, bm := range bms {
				if _, err := bm.RecommendContext(newCancelAfterPolls(polls), hb, 6); err != nil {
					bmAborts++
				}
				check(i, bm.Name())
			}

			if i%5 == 0 {
				if got, want := fc.Recommend(h, 6), o.oracleFocus(h, Closeness, 6); !reflect.DeepEqual(got, want) {
					t.Fatalf("query %d: focus diverged after aborts:\ngot  %v\nwant %v", i, got, want)
				}
				if got, want := br.Recommend(h, 6), o.oracleBreadth(h, Overlap, 6); !reflect.DeepEqual(got, want) {
					t.Fatalf("query %d: breadth diverged after aborts:\ngot  %v\nwant %v", i, got, want)
				}
			}
			if i%25 == 0 { // the Best Match oracle is the slow one
				if got, want := deep.Recommend(h, 6), od.oracleBreadth(h, Overlap, 6); !reflect.DeepEqual(got, want) {
					t.Fatalf("query %d: breadth over %d implementations diverged after aborts:\ngot  %v\nwant %v", i, deepLib.NumImplementations(), got, want)
				}
				for _, bm := range bms {
					if got, want := bm.Recommend(hb, 6), ob.oracleBestMatch(hb, bm.metric, 6); !reflect.DeepEqual(got, want) {
						t.Fatalf("query %d: %s diverged after aborts:\ngot  %v\nwant %v", i, bm.Name(), got, want)
					}
				}
			}
		}
		if bmAborts < 500 {
			t.Fatalf("only %d of 3000 Best Match queries aborted mid-pass", bmAborts)
		}
	})
}
