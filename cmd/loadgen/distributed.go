// Distributed load generation and benchmark sweeps.
//
// One loadgen process can drive others: start workers with -serve on a few
// machines, then point a driver at them with -workers. The driver splits the
// request budget across the workers, ships each its slice of the run over
// the cluster comms protocol (same framing layer the serving cluster uses),
// and merges the returned stats — counters summed, latencies concatenated,
// elapsed taken as the longest wall clock, which is what makes the merged
// throughput honest for concurrent generators.
//
//	loadgen -serve :7181 -library recipes.jsonl &          # on each machine
//	loadgen -workers hostA:7181,hostB:7181 \
//	        -url http://coordinator:8080 -library recipes.jsonl -requests 20000
//
// With -sweep the driver instead runs a benchmark grid over
// -strategies/-ks/-batches/-zipfs (locally or fanned out over -workers) and
// emits one bench-JSON cell per grid point to -bench-json, in the shape of
// the committed BENCH_PR*.json records.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"goalrec"
	"goalrec/internal/comms"
)

// Loadgen frame types (distinct protocol from internal/cluster; the two
// never share a connection, so overlapping numbers would be harmless, but
// distinct ones keep captures readable).
const (
	// frameLoadRun carries a wireConfig request; the response is loadStats.
	frameLoadRun = comms.TypeApp + iota
	// frameLoadErr is the error response; payload {"error": "..."}.
	frameLoadErr
)

// wireConfig is the scalar part of config, shipped to -serve workers. The
// worker supplies its own library (loaded at startup) and discards output.
type wireConfig struct {
	URL         string  `json:"url"`
	Strategy    string  `json:"strategy"`
	K           int     `json:"k"`
	Concurrency int     `json:"concurrency"`
	Requests    int     `json:"requests"`
	DurationMs  int64   `json:"duration_ms"`
	ActivityLen int     `json:"activity_len"`
	Seed        uint64  `json:"seed"`
	Zipf        float64 `json:"zipf"`
	Overload    bool    `json:"overload"`
	Batch       int     `json:"batch"`
	Users       int     `json:"users"`
}

func toWire(cfg config) wireConfig {
	return wireConfig{
		URL:         cfg.url,
		Strategy:    cfg.strategy,
		K:           cfg.k,
		Concurrency: cfg.concurrency,
		Requests:    cfg.requests,
		DurationMs:  cfg.duration.Milliseconds(),
		ActivityLen: cfg.activityLen,
		Seed:        cfg.seed,
		Zipf:        cfg.zipf,
		Overload:    cfg.overload,
		Batch:       cfg.batch,
		Users:       cfg.users,
	}
}

func (wc wireConfig) toConfig(lib *goalrec.Library) config {
	return config{
		url:         wc.URL,
		strategy:    wc.Strategy,
		k:           wc.K,
		concurrency: wc.Concurrency,
		requests:    wc.Requests,
		duration:    time.Duration(wc.DurationMs) * time.Millisecond,
		activityLen: wc.ActivityLen,
		seed:        wc.Seed,
		zipf:        wc.Zipf,
		overload:    wc.Overload,
		batch:       wc.Batch,
		users:       wc.Users,
		lib:         lib,
	}
}

// serveLoadWorker runs the process as a remote load generator: it accepts
// run requests over comms, executes them against the target URL in the
// request, and returns the raw stats for the driver to merge.
func serveLoadWorker(addr string, lib *goalrec.Library) error {
	srv := comms.NewServer(func(_ context.Context, _ *comms.ServerConn, f comms.Frame) (uint8, []byte) {
		fail := func(err error) (uint8, []byte) {
			b, _ := json.Marshal(map[string]string{"error": err.Error()})
			return frameLoadErr, b
		}
		if f.Type != frameLoadRun {
			return fail(fmt.Errorf("unknown frame type %d", f.Type))
		}
		var wc wireConfig
		if err := json.Unmarshal(f.Payload, &wc); err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "loadgen worker: running %d requests against %s (%s, k=%d)\n",
			wc.Requests, wc.URL, wc.Strategy, wc.K)
		stats, err := executeLoad(wc.toConfig(lib))
		if err != nil {
			return fail(err)
		}
		b, err := json.Marshal(stats)
		if err != nil {
			return fail(err)
		}
		return f.Type, b
	}, nil)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "loadgen worker listening on %s\n", addr)
	return srv.Serve(ln)
}

// executeDistributed splits cfg's request budget across the workers, runs
// the slices concurrently and merges the stats. Each worker gets a distinct
// seed so the fleet does not replay identical request streams in lockstep.
func executeDistributed(cfg config, workers []string) (loadStats, error) {
	per := cfg.requests / len(workers)
	rem := cfg.requests % len(workers)

	type outcome struct {
		stats loadStats
		err   error
	}
	outcomes := make([]outcome, len(workers))
	var wg sync.WaitGroup
	for i, addr := range workers {
		wcfg := toWire(cfg)
		wcfg.Requests = per
		if i < rem {
			wcfg.Requests++
		}
		wcfg.Seed = cfg.seed + uint64(i)*1_000_003
		if wcfg.Requests == 0 && cfg.duration == 0 {
			continue
		}
		payload, err := json.Marshal(wcfg)
		if err != nil {
			return loadStats{}, err
		}
		wg.Add(1)
		go func(i int, addr string, payload []byte) {
			defer wg.Done()
			conn, err := comms.Dial(addr)
			if err != nil {
				outcomes[i].err = fmt.Errorf("dialing worker %s: %w", addr, err)
				return
			}
			defer conn.Close()
			f, err := conn.Do(context.Background(), frameLoadRun, payload)
			if err != nil {
				outcomes[i].err = fmt.Errorf("worker %s: %w", addr, err)
				return
			}
			if f.Type == frameLoadErr {
				var ep struct {
					Error string `json:"error"`
				}
				_ = json.Unmarshal(f.Payload, &ep)
				outcomes[i].err = fmt.Errorf("worker %s: %s", addr, ep.Error)
				return
			}
			outcomes[i].err = json.Unmarshal(f.Payload, &outcomes[i].stats)
		}(i, addr, payload)
	}
	wg.Wait()

	var merged loadStats
	for i, o := range outcomes {
		if o.err != nil {
			return loadStats{}, fmt.Errorf("loadgen worker %d: %w", i, o.err)
		}
		merged.merge(o.stats)
	}
	return merged, nil
}

// executeAny runs cfg locally or fanned out over workers.
func executeAny(cfg config, workers []string) (loadStats, error) {
	if len(workers) > 0 {
		return executeDistributed(cfg, workers)
	}
	return executeLoad(cfg)
}

// sweepGrids are the benchmark grid axes.
type sweepGrids struct {
	strategies []string
	ks         []int
	batches    []int
	zipfs      []float64
}

// benchCell is one grid point in the bench-JSON shape, keyed by (method,
// implementations) with mean_latency_ms as the value.
type benchCell struct {
	Method          string  `json:"method"`
	Implementations int     `json:"implementations"`
	MeanLatencyMS   float64 `json:"mean_latency_ms"`
	P99LatencyMS    float64 `json:"p99_latency_ms"`
	ThroughputRPS   float64 `json:"throughput_rps"`
	OK              int     `json:"ok"`
	Failed          int     `json:"failed"`
}

// runSweep executes the full grid, printing one line per cell and writing
// the bench-JSON cells to benchJSON if set. Cells keep their failure counts
// instead of aborting the sweep; any failed cell fails the run at the end.
func runSweep(cfg config, grids sweepGrids, workers []string, benchJSON string) error {
	var cells []benchCell
	failed := 0
	for _, strat := range grids.strategies {
		for _, k := range grids.ks {
			for _, batch := range grids.batches {
				for _, z := range grids.zipfs {
					cc := cfg
					cc.strategy, cc.k, cc.batch, cc.zipf = strat, k, batch, z
					stats, err := executeAny(cc, workers)
					if err != nil {
						return err
					}
					cell := benchCell{
						Method:          fmt.Sprintf("loadgen/%s/k=%d/batch=%d/zipf=%g", strat, k, batch, z),
						Implementations: cfg.lib.NumImplementations(),
						OK:              stats.OK,
						Failed:          stats.Errors + stats.Unexpected,
					}
					if len(stats.LatenciesMs) > 0 {
						lat := append([]float64(nil), stats.LatenciesMs...)
						sort.Float64s(lat)
						var sum float64
						for _, l := range lat {
							sum += l
						}
						cell.MeanLatencyMS = sum / float64(len(lat))
						cell.P99LatencyMS = lat[int(0.99*float64(len(lat)-1))]
					}
					if stats.ElapsedMs > 0 {
						cell.ThroughputRPS = float64(stats.Requests) / (stats.ElapsedMs / 1000)
					}
					failed += cell.Failed
					fmt.Fprintf(cfg.out, "%-48s ok=%-6d mean=%.2fms p99=%.2fms %.1f req/s\n",
						cell.Method, cell.OK, cell.MeanLatencyMS, cell.P99LatencyMS, cell.ThroughputRPS)
					cells = append(cells, cell)
				}
			}
		}
	}
	if benchJSON != "" {
		data, err := json.MarshalIndent(cells, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(benchJSON, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(cfg.out, "wrote %d cells to %s\n", len(cells), benchJSON)
	}
	if failed > 0 {
		return fmt.Errorf("%d requests failed across the sweep", failed)
	}
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, p := range splitList(s) {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q in grid", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, p := range splitList(s) {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q in grid", p)
		}
		out = append(out, v)
	}
	return out, nil
}
