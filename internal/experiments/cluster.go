package experiments

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"goalrec"
	"goalrec/internal/cluster"
	"goalrec/internal/xrand"
)

// ClusterConfig parameterizes the sharded-serving sweep: one synthetic
// library served by scatter-gather clusters of growing worker counts.
type ClusterConfig struct {
	// Size is the library size (implementation count).
	Size int
	// Actions fixes the action space.
	Actions int
	// Workers lists the cluster sizes to sweep.
	Workers []int
	// Queries is the number of queries timed per (workers, strategy) cell.
	Queries int
	// ActivityLen is the query activity size.
	ActivityLen int
	// Concurrency is the number of in-flight queries; scatter-gather only
	// scales when queries overlap, as they do on a loaded front end.
	Concurrency int
	// Seed drives generation.
	Seed uint64
}

func (c *ClusterConfig) fill() {
	if c.Size <= 0 {
		c.Size = 20000
	}
	if c.Actions <= 0 {
		c.Actions = 2000
	}
	if len(c.Workers) == 0 {
		c.Workers = []int{1, 2, 4}
	}
	if c.Queries <= 0 {
		c.Queries = 200
	}
	if c.ActivityLen <= 0 {
		c.ActivityLen = 5
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
}

// clusterLibrary builds a synthetic named library (the cluster layer works
// on the public API, which resolves action names) with Zipf-popular actions,
// mirroring scalabilityLibrary's shape.
func clusterLibrary(cfg ClusterConfig, rng *xrand.RNG) *goalrec.Library {
	b := goalrec.NewBuilder()
	pop := xrand.NewZipf(rng.Split(), cfg.Actions, 0.6)
	for i := 0; i < cfg.Size; i++ {
		n := 2 + rng.Poisson(6)
		if n > cfg.Actions {
			n = cfg.Actions
		}
		seen := map[int]bool{}
		var acts []string
		for j := 0; j < n; j++ {
			id := pop.Next()
			if seen[id] {
				continue
			}
			seen[id] = true
			acts = append(acts, fmt.Sprintf("a%d", id))
		}
		if len(acts) < 2 {
			acts = append(acts, fmt.Sprintf("a%d", (int32(i)%int32(cfg.Actions))))
		}
		if err := b.AddImplementation(fmt.Sprintf("g%d", i/2), acts...); err != nil {
			panic(err) // unreachable: acts is non-empty and names are valid
		}
	}
	return b.Build()
}

// startCluster spins up n shard workers over even ranges (each on its own
// engine, as separate processes would be) plus a coordinator, and returns
// the coordinator with a teardown func.
func startCluster(lib *goalrec.Library, n int) (*cluster.Coordinator, func(), error) {
	per := lib.NumImplementations() / n
	var workers []*cluster.Worker
	var listeners []net.Listener
	var peers []string
	shutdown := func() {
		for _, w := range workers {
			w.Close()
		}
		for _, ln := range listeners {
			ln.Close()
		}
	}
	for i := 0; i < n; i++ {
		lo, hi := i*per, (i+1)*per
		if i == n-1 {
			hi = -1
		}
		w := cluster.NewWorker(goalrec.NewEngineFromLibrary(lib), cluster.WorkerConfig{Lo: lo, Hi: hi})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			shutdown()
			return nil, nil, err
		}
		workers = append(workers, w)
		listeners = append(listeners, ln)
		peers = append(peers, ln.Addr().String())
		go func() { _ = w.Serve(ln) }()
	}
	co := cluster.NewCoordinator(goalrec.NewEngineFromLibrary(lib), cluster.CoordinatorConfig{
		Peers: peers,
	})
	return co, func() { co.Close(); shutdown() }, nil
}

// ClusterScaling measures scatter-gather throughput as the worker count
// grows: the same library, the same query stream, clusters of 1..N shard
// workers. Each cell's MeanLatency is wall clock / queries at the configured
// concurrency, so halving it means doubled throughput.
func ClusterScaling(cfg ClusterConfig) ([]ScalabilityPoint, error) {
	cfg.fill()
	rng := xrand.New(cfg.Seed)
	lib := clusterLibrary(cfg, rng.Split())
	conn := lib.Stats().Connectivity

	actions := lib.Actions()
	qrng := rng.Split()
	queries := make([][]string, cfg.Queries)
	for i := range queries {
		idxs := qrng.SampleInt32(int32(len(actions)), cfg.ActivityLen)
		q := make([]string, len(idxs))
		for j, idx := range idxs {
			q[j] = actions[idx]
		}
		queries[i] = q
	}

	var points []ScalabilityPoint
	for _, n := range cfg.Workers {
		co, stop, err := startCluster(lib, n)
		if err != nil {
			return nil, err
		}
		for _, strat := range []string{"focus-cmp", "focus-cl", "breadth", "best-match"} {
			// Warm the shard caches (and the comms connections) off the clock.
			if _, err := co.Recommend(context.Background(), strat, "", queries[0], 10); err != nil {
				stop()
				return nil, fmt.Errorf("cluster/%s with %d workers: %w", strat, n, err)
			}
			var wg sync.WaitGroup
			var firstErr error
			var mu sync.Mutex
			jobs := make(chan []string)
			start := time.Now()
			for w := 0; w < cfg.Concurrency; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for q := range jobs {
						if _, err := co.Recommend(context.Background(), strat, "", q, 10); err != nil {
							mu.Lock()
							if firstErr == nil {
								firstErr = err
							}
							mu.Unlock()
						}
					}
				}()
			}
			for _, q := range queries {
				jobs <- q
			}
			close(jobs)
			wg.Wait()
			if firstErr != nil {
				stop()
				return nil, fmt.Errorf("cluster/%s with %d workers: %w", strat, n, firstErr)
			}
			points = append(points, ScalabilityPoint{
				Implementations: lib.NumImplementations(),
				Connectivity:    conn,
				Method:          fmt.Sprintf("cluster/%s/workers=%d", strat, n),
				MeanLatency:     time.Since(start) / time.Duration(len(queries)),
			})
		}
		stop()
	}
	return points, nil
}

// ClusterTable renders the cluster sweep: one row per (workers, strategy)
// cell, with throughput derived from the effective per-query latency.
func ClusterTable(points []ScalabilityPoint) *Table {
	t := &Table{
		ID:      "C1",
		Title:   "scatter-gather throughput vs worker count (sharded serving)",
		Columns: []string{"method", "implementations", "mean latency", "throughput"},
	}
	for _, p := range points {
		qps := 0.0
		if p.MeanLatency > 0 {
			qps = float64(time.Second) / float64(p.MeanLatency)
		}
		t.AddRow(p.Method, fmt.Sprintf("%d", p.Implementations),
			p.MeanLatency.String(), fmt.Sprintf("%.0f q/s", qps))
	}
	return t
}
