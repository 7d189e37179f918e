package strategy

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"goalrec/internal/core"
	"goalrec/internal/vectorspace"
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
// lib: the four strategies plus each forced Best Match scoring path.
func ctxTestRecommenders(lib *core.Library) map[string]ContextRecommender {
	sharded := NewBestMatch(lib)
	sharded.mode = bmCandidateMajor
	sharded.shardMin = 1
	sharded.maxWorkers = 2
	candMajor := NewBestMatch(lib)
	candMajor.mode = bmCandidateMajor
	candMajor.shardMin = 1 << 30 // force serial
	goalMajor := NewBestMatch(lib)
	goalMajor.mode = bmGoalMajor
	// Two-worker sharded kernels: with the ctxBigLibrary stream split in
	// half, each worker still crosses its own checkInterval checkpoint.
	shFocus := NewFocus(lib, Completeness)
	shFocus.SetConcurrency(2, 1)
	shBreadth := NewBreadth(lib)
	shBreadth.SetConcurrency(2, 1)
	return map[string]ContextRecommender{
		"focus-cmp":             NewFocus(lib, Completeness),
		"focus-cl":              NewFocus(lib, Closeness),
		"focus-sharded":         shFocus,
		"breadth":               NewBreadth(lib),
		"breadth-sharded":       shBreadth,
		"best-match-auto":       NewBestMatch(lib),
		"best-match-candidate":  candMajor,
		"best-match-sharded":    sharded,
		"best-match-goal-major": goalMajor,
		"best-match-manhattan":  NewBestMatchMetric(lib, vectorspace.Manhattan),
		"cached-breadth":        NewCached(NewBreadth(lib), 16),
	}
}

// ctxBigLibrary is sized so every scoring path crosses at least one
// checkInterval checkpoint: |IS(H)| and the candidate pool both exceed
// checkInterval, and the sharded path's per-worker chunks do too.
func ctxBigLibrary(t testing.TB) (*core.Library, []core.ActionID) {
	t.Helper()
	lib := benchLibrary(100000, 5000, 3)
	q := benchQueries(5000, 1, 10, 4)[0]
	if n := len(lib.ImplementationSpace(q)); n <= checkInterval {
		t.Fatalf("implementation space too small for checkpoint coverage: %d", n)
	}
	// The sharded path splits candidates across two workers, each with its
	// own checkpoint counter, so both chunks must exceed checkInterval.
	if n := len(lib.Candidates(q)); n <= 2*(checkInterval+64) {
		t.Fatalf("candidate pool too small for sharded checkpoint coverage: %d", n)
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
			case "focus-cmp", "focus-cl", "focus-sharded":
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
			case "focus-cmp", "focus-cl", "focus-sharded", "cached-breadth":
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
