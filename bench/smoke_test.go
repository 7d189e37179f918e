package main

import (
	"context"
	"io"
	"testing"
	"time"
)

// TestSmokeAllWorkloads runs every workload end to end, traced, against
// in-process nodes on a small library: the harness keeps working as the
// packages it calls into change, every named metric is reported, and no
// operation fails its reference check.
func TestSmokeAllWorkloads(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.name, func(t *testing.T) {
			small := *wl
			small.ladderN = 120
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			res, err := run(ctx, config{wl: &small, seed: 1, seconds: 1, trace: true, out: t.TempDir(),
				sz: testSizes, setups: 1, warmup: 200 * time.Millisecond, inproc: true, log: io.Discard})
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.metrics["bench.failed_share"] != 0 {
				t.Errorf("%d of %d operations failed", res.failed, res.attempted)
			}
			for _, defs := range [][]metricDef{endToEnd, perLayer} {
				for _, d := range defs {
					if _, ok := res.metrics[d.name]; !ok {
						t.Errorf("metric %s is not reported", d.name)
					}
					if d.unit == "" {
						t.Errorf("metric %s has no unit", d.name)
					}
				}
			}
			for _, name := range []string{"setup_s", "rss_peak_mb", "client.throughput_rps", "client.latency_p50_ms", "client.latency_p99_ms", "client.seq_p50_us", "server.serve_p50_us", "strategy.kernel." + wl.strategy + "_us"} {
				if res.metrics[name] <= 0 {
					t.Errorf("%s = %v, want a positive measurement", name, res.metrics[name])
				}
			}
		})
	}
}
