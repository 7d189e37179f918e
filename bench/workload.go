package main

import "fmt"

// workload is one traffic mix. Everything here is frozen: a later change is
// judged against numbers these parameters produced.
type workload struct {
	name string
	topo topology
	// rate is the open-loop arrival rate in requests per second: 40 % of the
	// median closed-loop client.throughput_rps of ten runs at the commit that
	// defined the benchmark (9018, 1011, 3181 and 329 req/s), two significant
	// digits.
	rate float64
	// strategy is the strategy whose kernel the workload exercises; the
	// traced run reports its layers as the request's own.
	strategy string
	// ladderN is how many requests the traced run replays per rung.
	ladderN int
	// stream returns the request stream numbered client: the load, the
	// verify step and the traced run each draw the same way from their own
	// seed.
	stream func(seed uint64, client int, sz sizes) stream
}

// Stream numbers. The load clients' streams are 0 … loadClients-1.
const (
	verifyClient = 8 // stream of the quiescent verify step and the first requests
	ladderClient = 9 // stream the traced run replays
)

// verifyRequests is the size of the quiescent verify step.
const verifyRequests = 200

var workloads = []workload{
	{
		// Zipf(1.0) repeats over 1024 activities that fit the result cache: the
		// kernel is bypassed, so HTTP, JSON, name resolution and the cache
		// lookup are the request. A kernel change must not show here.
		name:     "hot_http",
		topo:     topoSingle,
		rate:     3600,
		strategy: "focus-cmp",
		ladderN:  1000,
		stream: func(seed uint64, client int, sz sizes) stream {
			return newHotStream(seed, client, hotPool(seed, sz))
		},
	},
	{
		// best-match over distinct activities (cache hit share 0): posting scans
		// in strategy and core are most of the request, so kernel and layout
		// changes show here and front-end changes must not.
		name:     "bestmatch_kernel",
		topo:     topoSingle,
		rate:     400,
		strategy: "best-match",
		ladderN:  1000,
		stream: func(seed uint64, client int, sz sizes) stream {
			return &distinctStream{rng: subRNG(seed, fmt.Sprintf("bestmatch-%d", client)),
				actions: sz.actions, strategy: "best-match"}
		},
	},
	{
		// 1000 live sessions on a durable store: append, score the materialized
		// view, delete, with ingests advancing the epoch under load; writes
		// beside reads, WAL and CounterView instead of scans.
		name:     "user_session",
		topo:     topoDurable,
		rate:     1300,
		strategy: "breadth",
		ladderN:  600,
		stream: func(seed uint64, client int, sz sizes) stream {
			if client >= loadClients {
				// The traced stream brings its own small population.
				return newSessionStream(seed, client, 64, sz.actions, true)
			}
			// Each load client owns a disjoint share of the sessions; client 0
			// also sends the ingests, so the acked batches have one order.
			return newSessionStream(seed, client, sz.sessions/loadClients, sz.actions, client == 0)
		},
	},
	{
		// breadth over distinct activities through a coordinator and 2 workers:
		// scatter, comms framing, worker partials and the merge dominate; this
		// workload explains and gates the cluster tax.
		name:     "cluster_breadth",
		topo:     topoCluster,
		rate:     130,
		strategy: "breadth",
		ladderN:  300,
		stream: func(seed uint64, client int, sz sizes) stream {
			return &distinctStream{rng: subRNG(seed, fmt.Sprintf("cluster-%d", client)),
				actions: sz.actions, strategy: "breadth"}
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i := range workloads {
		names[i] = workloads[i].name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}
