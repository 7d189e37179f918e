// Command bench is the repository's benchmark: it generates a library and
// request streams from a seed, builds and launches the real goalrecd as
// child processes, drives it over loopback HTTP from two connections, checks
// the answers against in-process references and reports the end-to-end
// metrics — or, with -trace 1, the per-layer metrics of the layer ladder.
// BENCHMARK.json at the repository root names the command, the workloads and
// every metric; README.md in this directory is the catalogue.
//
//	go run ./bench -workload hot_http -seed 1 -seconds 18 -trace 0
//	go run ./bench compare A.jsonl B.jsonl
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(benchMain())
}

// wireMetric is one metric of the result line.
type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// wireResult is the run's last line of standard output.
type wireResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

// record is one line of a -record file, the input of "bench compare".
type record struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Trace    bool               `json:"trace"`
	Env      map[string]string  `json:"env"`
	Failed   int                `json:"failed"`
	Metrics  map[string]float64 `json:"metrics"`
}

// finite maps the +Inf of a failed request's latency to a number JSON can
// carry; such a run is reported incorrect anyway.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return math.MaxFloat64
	}
	return v
}

func benchMain() int {
	name := flag.String("workload", "", "workload to run: hot_http, bestmatch_kernel, user_session or cluster_breadth")
	seed := flag.Uint64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 18, "length of the timed phases (a third closed loop, two thirds open loop); BENCHMARK.json's run_seconds")
	trace := flag.Int("trace", 0, "1 adds the traced run and reports the per-layer metrics instead of the end-to-end ones")
	out := flag.String("out", "bench/.out", "directory for the daemon build, temporary files and trace-<workload>.json")
	recordPath := flag.String("record", "", "append the run's metrics as one JSON line to this file (input of \"bench compare\")")
	flag.Parse()
	wl, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}

	// SIGINT/SIGTERM cancel the run; run's deferred clean-up then stops the
	// children and removes the temporary directory.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := config{wl: wl, seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out,
		sz: fullSizes, setups: 3, warmup: 2 * time.Second, log: os.Stdout}
	if cfg.trace {
		cfg.setups = 1 // the traced run reports no set-up time; spend the time on the ladder
	}
	res, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	for name, v := range res.metrics {
		res.metrics[name] = finite(v)
	}

	fmt.Printf("workload %s seed %d seconds %g trace %d\n", wl.name, *seed, *seconds, *trace)
	keys := make([]string, 0, len(res.env))
	for key := range res.env {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		fmt.Printf("env %s=%s\n", key, res.env[key])
	}
	defs := append(append([]metricDef(nil), endToEnd...), moved...)
	if cfg.trace {
		defs = append(append([]metricDef(nil), endToEnd...), perLayer...)
	}
	for _, d := range defs {
		fmt.Printf("%-36s %14.4f %s\n", d.name, res.metrics[d.name], d.unit)
	}

	if *recordPath != "" {
		line, _ := json.Marshal(record{wl.name, *seed, cfg.trace, res.env, res.failed, res.metrics})
		f, err := os.OpenFile(*recordPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err == nil {
			_, err = f.Write(append(line, '\n'))
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: writing the record:", err)
			return 1
		}
	}

	// The result line: end-to-end metrics untraced, per-layer metrics traced.
	reported := endToEnd
	if cfg.trace {
		reported = perLayer
	}
	wire := wireResult{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]wireMetric{}}
	for _, d := range reported {
		wire.Metrics[d.name] = wireMetric{res.metrics[d.name], d.unit}
	}
	line, err := json.Marshal(wire)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if res.failed > 0 {
		return 1
	}
	return 0
}
