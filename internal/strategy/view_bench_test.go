package strategy

import (
	"bytes"
	"context"
	"hash/fnv"
	"slices"
	"strconv"
	"sync"
	"testing"

	"goalrec/internal/core"
	"goalrec/internal/xrand"
)

// The session benchmarks run on the repository benchmark's shapes: its library
// (bench/gen.go writeLibrary, copied like core's benchShapeJSONL: Zipf(0.6)-
// popular actions, 2+Poisson(6) per implementation, two implementations per
// goal) and its user sessions (sessionStream: twelve distinct actions drawn
// Zipf(1.0) over a seeded permutation of the ids, so the actions users favour
// are not the library's longest rows).
const (
	viewBenchImpls      = 250_000
	viewBenchActions    = 10_000
	viewBenchSessionLen = 12
)

func subRNG(seed uint64, label string) *xrand.RNG {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	return xrand.New(seed ^ h.Sum64())
}

func benchShapeJSONL(seed uint64, impls, actions int) []byte {
	rng := subRNG(seed, "library")
	pop := xrand.NewZipf(rng.Split(), actions, 0.6)
	var out []byte
	var ids []int
	for i := 0; i < impls; i++ {
		n := min(2+rng.Poisson(6), actions)
		ids = ids[:0]
	draw:
		for j := 0; j < n; j++ {
			id := pop.Next()
			for _, seen := range ids {
				if seen == id {
					continue draw
				}
			}
			ids = append(ids, id)
		}
		if len(ids) < 2 {
			ids = append(ids, (ids[0]+1)%actions)
		}
		out = append(out, `{"goal":"g`...)
		out = strconv.AppendInt(out, int64(i/2), 10)
		out = append(out, `","actions":[`...)
		for j, id := range ids {
			if j > 0 {
				out = append(out, ',')
			}
			out = append(out, `"a`...)
			out = strconv.AppendInt(out, int64(id), 10)
			out = append(out, '"')
		}
		out = append(out, "]}\n"...)
	}
	return out
}

var viewBench struct {
	once     sync.Once
	lib      *core.Library
	sessions [][]core.ActionID
}

// viewBenchShape returns the seed-1 library (a tenth of the size under
// -short) and 512 sessions over it, built once per process.
func viewBenchShape(b *testing.B) (*core.Library, [][]core.ActionID) {
	viewBench.once.Do(func() {
		impls := viewBenchImpls
		if testing.Short() {
			impls /= 10
		}
		lib, vocab, err := core.ReadJSONLines(bytes.NewReader(benchShapeJSONL(1, impls, viewBenchActions)))
		if err != nil {
			b.Fatal(err)
		}
		rng := subRNG(1, "session-0")
		pop := xrand.NewZipf(rng.Split(), viewBenchActions, 1.0)
		byRank := subRNG(1, "user-popularity").Perm(viewBenchActions)
		sessions := make([][]core.ActionID, 512)
		for i := range sessions {
			var h []core.ActionID
			for len(h) < viewBenchSessionLen {
				id, ok := vocab.Actions.Lookup("a" + strconv.Itoa(byRank[pop.Next()]))
				if a := core.ActionID(id); ok && !slices.Contains(h, a) {
					h = append(h, a)
				}
			}
			sessions[i] = h
		}
		viewBench.lib, viewBench.sessions = lib, sessions
	})
	return viewBench.lib, viewBench.sessions
}

// BenchmarkRecommendView scores full-length sessions from scratch with each
// strategy, as a stored user is scored (the "-scratch" rows).
func BenchmarkRecommendView(b *testing.B) {
	lib, sessions := viewBenchShape(b)
	for _, rec := range []Recommender{NewFocus(lib, Completeness), NewBreadth(lib), NewBestMatch(lib)} {
		b.Run(rec.Name()+"-scratch", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RecommendContext(context.Background(), rec, sessions[i%len(sessions)], 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
