package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"

	"goalrec"
)

// fuzzCluster is a process-wide 3-shard cluster shared by every fuzz
// iteration.
var (
	fuzzOnce sync.Once
	fuzzLib  *goalrec.Library
	fuzzCo   *Coordinator
	fuzzRecs map[string]goalrec.Recommender
)

func fuzzSetup() {
	fuzzLib = clusterTestLibrary(7, 64)
	n := fuzzLib.NumImplementations()
	per := (n + 2) / 3
	var addrs []string
	for i := 0; i < 3; i++ {
		lo, hi := i*per, (i+1)*per
		if i == 2 {
			hi = -1
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		w := NewWorker(goalrec.NewEngineFromLibrary(fuzzLib), WorkerConfig{Lo: lo, Hi: hi})
		go w.Serve(ln)
		addrs = append(addrs, ln.Addr().String())
	}
	fuzzCo = NewCoordinator(goalrec.NewEngineFromLibrary(fuzzLib), CoordinatorConfig{Peers: addrs})

	fuzzRecs = make(map[string]goalrec.Recommender)
	mk := func(name string, s goalrec.Strategy, opts ...goalrec.RecommenderOption) {
		fuzzRecs[name] = fuzzLib.MustRecommender(s, opts...)
	}
	mk("focus-cmp", goalrec.FocusCompleteness)
	mk("focus-cl", goalrec.FocusCloseness)
	mk("breadth", goalrec.Breadth)
	mk("best-match", goalrec.BestMatch)
	mk("best-match-jaccard", goalrec.BestMatch, goalrec.WithDistanceMetric("jaccard"))
	mk("best-match-euclidean", goalrec.BestMatch, goalrec.WithDistanceMetric("euclidean"))
	mk("best-match-manhattan", goalrec.BestMatch, goalrec.WithDistanceMetric("manhattan"))
}

// fuzzSpecs maps a fuzz byte onto a (strategy, metric) request pair plus
// the single-node oracle's key in fuzzRecs.
var fuzzSpecs = []struct{ key, strategy, metric string }{
	{"focus-cmp", "focus-cmp", ""},
	{"focus-cl", "focus-cl", ""},
	{"breadth", "breadth", ""},
	{"best-match", "best-match", ""},
	{"best-match-jaccard", "best-match", "jaccard"},
	{"best-match-euclidean", "best-match", "euclidean"},
	{"best-match-manhattan", "best-match", "manhattan"},
}

// FuzzClusterRankings drives random activities through the cluster and a
// single-node recommender and requires exactly equal rankings — names,
// order and float64 score bits.
func FuzzClusterRankings(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(0))
	f.Add(int64(2), uint8(1), uint8(1))
	f.Add(int64(3), uint8(10), uint8(2))
	f.Add(int64(4), uint8(64), uint8(5))
	f.Add(int64(5), uint8(7), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, kb, sb uint8) {
		fuzzOnce.Do(fuzzSetup)
		spec := fuzzSpecs[int(sb)%len(fuzzSpecs)]
		k := 1 + int(kb)%20
		r := rand.New(rand.NewSource(seed))
		activity := make([]string, 0, 6)
		for i := 1 + r.Intn(6); i > 0; i-- {
			if r.Intn(8) == 0 {
				activity = append(activity, fmt.Sprintf("zz%d", r.Intn(4))) // unknown
			} else {
				activity = append(activity, fmt.Sprintf("a%d", r.Intn(40)))
			}
		}

		res, err := fuzzCo.Recommend(context.Background(), spec.strategy, spec.metric, activity, k)
		if err != nil {
			t.Fatalf("cluster %s k=%d %v: %v", spec.key, k, activity, err)
		}
		if res.Degraded {
			t.Fatalf("healthy fuzz cluster answered degraded")
		}
		want, err := fuzzRecs[spec.key].RecommendContext(context.Background(), activity, k)
		if err != nil {
			t.Fatalf("single-node %s: %v", spec.key, err)
		}
		if len(res.Recommendations) != len(want) {
			t.Fatalf("%s k=%d %v: cluster returned %d recommendations, single-node %d\ncluster: %v\n single: %v",
				spec.key, k, activity, len(res.Recommendations), len(want), res.Recommendations, want)
		}
		for i := range want {
			got := res.Recommendations[i]
			if got.Action != want[i].Action || got.Score != want[i].Score {
				t.Fatalf("%s k=%d %v: rank %d differs: cluster %q/%v, single %q/%v",
					spec.key, k, activity, i, got.Action, got.Score, want[i].Action, want[i].Score)
			}
		}
	})
}
