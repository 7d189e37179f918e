package cluster

import (
	"strconv"
	"sync/atomic"
	"time"
)

// fanoutBoundsMs are the upper bounds (milliseconds, inclusive) of the
// per-worker fan-out latency histogram — the time from scatter to one
// worker's response. A final unbounded bucket catches the tail.
var fanoutBoundsMs = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000}

// Metrics aggregates the coordinator's scatter-gather counters, surfaced
// under "cluster" in /v1/metrics. All fields are monotonic and safe for
// concurrent use.
type Metrics struct {
	workers int

	scatters          atomic.Int64
	partialFailures   atomic.Int64
	degradedResponses atomic.Int64
	failedQueries     atomic.Int64

	swapsPrepared  atomic.Int64
	swapsCommitted atomic.Int64
	swapsAborted   atomic.Int64

	// fanout[i] counts responses with latency <= fanoutBoundsMs[i];
	// fanout[len(fanoutBoundsMs)] is the overflow bucket. Buckets are
	// non-cumulative (each observation lands in exactly one).
	fanout []atomic.Int64
}

func newMetrics(workers int) *Metrics {
	return &Metrics{workers: workers, fanout: make([]atomic.Int64, len(fanoutBoundsMs)+1)}
}

// observeFanout records one worker response latency.
func (m *Metrics) observeFanout(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	for i, b := range fanoutBoundsMs {
		if ms <= b {
			m.fanout[i].Add(1)
			return
		}
	}
	m.fanout[len(fanoutBoundsMs)].Add(1)
}

// FanoutBucket is one histogram cell of the fan-out latency distribution.
type FanoutBucket struct {
	// Le is the bucket's inclusive upper bound in milliseconds; the last
	// bucket's bound is "inf".
	Le    string `json:"le"`
	Count int64  `json:"count"`
}

// SwapCounters reports the two-phase swap outcomes the coordinator drove.
type SwapCounters struct {
	Prepared  int64 `json:"prepared"`
	Committed int64 `json:"committed"`
	Aborted   int64 `json:"aborted"`
}

// MetricsSnapshot is the JSON shape of the "cluster" metrics block.
type MetricsSnapshot struct {
	Workers           int            `json:"workers"`
	Connected         int            `json:"connected"`
	Scatters          int64          `json:"scatters"`
	PartialFailures   int64          `json:"partial_failures"`
	DegradedResponses int64          `json:"degraded_responses"`
	FailedQueries     int64          `json:"failed_queries"`
	FanoutLatencyMs   []FanoutBucket `json:"fanout_latency_ms"`
	Swaps             SwapCounters   `json:"swaps"`
}

// Snapshot copies the counters. connected is sampled by the caller (the
// coordinator knows its live peer count).
func (m *Metrics) Snapshot(connected int) MetricsSnapshot {
	s := MetricsSnapshot{
		Workers:           m.workers,
		Connected:         connected,
		Scatters:          m.scatters.Load(),
		PartialFailures:   m.partialFailures.Load(),
		DegradedResponses: m.degradedResponses.Load(),
		FailedQueries:     m.failedQueries.Load(),
		Swaps: SwapCounters{
			Prepared:  m.swapsPrepared.Load(),
			Committed: m.swapsCommitted.Load(),
			Aborted:   m.swapsAborted.Load(),
		},
	}
	s.FanoutLatencyMs = make([]FanoutBucket, 0, len(m.fanout))
	for i, b := range fanoutBoundsMs {
		s.FanoutLatencyMs = append(s.FanoutLatencyMs, FanoutBucket{
			Le: strconv.FormatFloat(b, 'f', -1, 64), Count: m.fanout[i].Load(),
		})
	}
	s.FanoutLatencyMs = append(s.FanoutLatencyMs, FanoutBucket{
		Le: "inf", Count: m.fanout[len(fanoutBoundsMs)].Load(),
	})
	return s
}
