// Command experiments regenerates every table and figure of the paper's
// evaluation (Section 6) on the synthetic datasets, plus the ablations in
// DESIGN.md:
//
//	experiments -scale 0.15 -max-users 500
//	experiments -scale 1.0                # the paper's full cardinalities
//	experiments -markdown -out results.md # GitHub-flavored markdown
//
// Experiment ids follow DESIGN.md: T2–T6 are the paper's tables, F3–F7 its
// figures (F3 shares its data with T4; F4b is the paper's exact
// customer-cart TPR protocol), B1–B4 and E1 the beyond-accuracy /
// significance / protocol extensions, A1–A3 the ablations.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"goalrec/internal/core"
	"goalrec/internal/experiments"
	"goalrec/internal/strategy"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func parseSizes(s string) ([]int, error) {
	var sizes []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("invalid scaling size %q", part)
		}
		sizes = append(sizes, v)
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("no scaling sizes given")
	}
	return sizes, nil
}

func run() error {
	scale := flag.Float64("scale", 0.15, "dataset scale (1.0 = the paper's full size)")
	k := flag.Int("k", 10, "recommendation list length")
	keep := flag.Float64("keep", 0.3, "visible fraction of each activity")
	maxUsers := flag.Int("max-users", 500, "evaluation users per dataset (0 = all)")
	seed := flag.Uint64("seed", 1, "run seed")
	markdown := flag.Bool("markdown", false, "render markdown instead of plain text")
	outPath := flag.String("out", "", "write results to this file instead of stdout")
	skipScaling := flag.Bool("skip-scaling", false, "skip the Figure 7 latency sweep")
	skipDatasets := flag.Bool("skip-datasets", false, "skip the dataset experiments (run only the Figure 7 sweep)")
	scalingSizes := flag.String("scaling-sizes", "5000,20000,80000", "comma-separated library sizes for the Figure 7 sweep")
	scalingActions := flag.Int("scaling-actions", 3000, "action-space size for the Figure 7 sweep")
	benchJSON := flag.String("bench-json", "", "also write the Figure 7 sweep points as JSON to this file")
	scalingQueries := flag.Int("scaling-queries", 0, "query activities timed per Figure 7 cell (0 selects the default)")
	impactOrdering := flag.Bool("impact-ordering", false, "impact-order each swept library before timing (Focus then takes the block-max scan and its cells carry the scan counters)")
	coldStart := flag.Bool("cold-start", false, "also measure cold start (legacy decode+rebuild vs mmap snapshot open) at the sweep sizes")
	userAppend := flag.Bool("user-append", false, "also measure append+recommend with a materialized counter view vs a from-scratch scan at the sweep sizes")
	blockCache := flag.Bool("block-cache", false, "also measure posting-row scans raw vs compressed, cold vs block-cached, at the sweep sizes")
	clusterBench := flag.Bool("cluster", false, "also measure scatter-gather throughput on in-process shard clusters of growing worker count (first sweep size)")
	clusterWorkers := flag.String("cluster-workers", "1,2,4", "comma-separated worker counts for the -cluster sweep")
	flag.Parse()

	sizes, err := parseSizes(*scalingSizes)
	if err != nil {
		return err
	}

	out := io.Writer(os.Stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}

	cfg := experiments.Config{
		Scale:    *scale,
		K:        *k,
		KeepFrac: *keep,
		MaxUsers: *maxUsers,
		Seed:     *seed,
	}

	emit := func(t *experiments.Table) error {
		if *markdown {
			return t.Markdown(out)
		}
		if err := t.Render(out); err != nil {
			return err
		}
		_, err := fmt.Fprintln(out)
		return err
	}

	builds := []struct {
		name string
		mk   func(experiments.Config) (*experiments.Env, error)
	}{
		{"foodmart", experiments.NewFoodMartEnv},
		{"43things", experiments.NewFortyThreeEnv},
	}
	if *skipDatasets {
		builds = nil
	}
	for _, build := range builds {
		start := time.Now()
		env, err := build.mk(cfg)
		if err != nil {
			return fmt.Errorf("preparing %s: %w", build.name, err)
		}
		fmt.Fprintf(out, "# dataset %s: %s, %d evaluation users (prepared in %v)\n\n",
			build.name, env.Dataset.Library.Stats(), len(env.Inputs), time.Since(start).Round(time.Millisecond))

		tables := []*experiments.Table{
			experiments.Table2(env),
			experiments.Table3(env),
			experiments.Table4(env), // also Figure 3
			experiments.Table5(env),
			experiments.Figure4(env),
			experiments.Figure4b(env),
			experiments.Figure5(env),
			experiments.Figure6(env),
			experiments.Table6(env),
			experiments.BeyondAccuracy(env),
			experiments.RankingAccuracy(env),
			experiments.CompletenessByGoalCount(env),
			experiments.SignificanceVsBaselines(env),
			experiments.TemporalSplit(env),
			experiments.MethodLatency(env),
			experiments.AblationBreadth(env),
			experiments.AblationBestMatch(env),
			experiments.AblationHybrid(env),
		}
		for _, t := range tables {
			if err := emit(t); err != nil {
				return err
			}
		}
	}

	if !*skipScaling {
		fmt.Fprintf(out, "# scalability (Figure 7)\n\n")
		points := experiments.Scalability(experiments.ScalabilityConfig{
			Sizes: sizes, Actions: *scalingActions, Seed: *seed,
			Queries:        *scalingQueries,
			ImpactOrdering: *impactOrdering,
		})
		if err := emit(experiments.Figure7Table(points)); err != nil {
			return err
		}
		if err := emit(experiments.ConnectivitySweep(20000, []int{8000, 2000, 500}, *seed)); err != nil {
			return err
		}
		if *coldStart {
			cs, err := experiments.ColdStart(experiments.ScalabilityConfig{
				Sizes: sizes, Actions: *scalingActions, Seed: *seed,
			})
			if err != nil {
				return err
			}
			if err := emit(experiments.ColdStartTable(cs)); err != nil {
				return err
			}
			points = append(points, cs...)
		}
		if *userAppend {
			ua := experiments.UserAppend(experiments.UserAppendConfig{
				Sizes: sizes, Seed: *seed,
			})
			if err := emit(experiments.UserAppendTable(ua)); err != nil {
				return err
			}
			points = append(points, ua...)
		}
		if *blockCache {
			bc, err := experiments.BlockCacheScan(experiments.BlockCacheConfig{
				Sizes: sizes, Actions: *scalingActions, Seed: *seed,
			})
			if err != nil {
				return err
			}
			if err := emit(experiments.BlockCacheTable(bc)); err != nil {
				return err
			}
			points = append(points, bc...)
		}
		if *clusterBench {
			workerCounts, err := parseSizes(*clusterWorkers)
			if err != nil {
				return fmt.Errorf("-cluster-workers: %w", err)
			}
			cp, err := experiments.ClusterScaling(experiments.ClusterConfig{
				Size: sizes[0], Actions: *scalingActions, Seed: *seed,
				Workers: workerCounts, Queries: *scalingQueries,
			})
			if err != nil {
				return err
			}
			if err := emit(experiments.ClusterTable(cp)); err != nil {
				return err
			}
			points = append(points, cp...)
		}
		if *benchJSON != "" {
			if err := writeBenchJSON(*benchJSON, points); err != nil {
				return err
			}
		}
	}
	return nil
}

// benchPoint is the JSON shape of one Figure 7 cell — the shape of the
// committed BENCH_PR*.json records README's historical table cites.
type benchPoint struct {
	Method          string  `json:"method"`
	Implementations int     `json:"implementations"`
	Connectivity    float64 `json:"connectivity"`
	MeanLatencyMS   float64 `json:"mean_latency_ms"`
	// ColdStartMS duplicates the latency for the cold-start/* cells so the
	// restart-cost numbers are addressable by name in the bench JSON.
	ColdStartMS float64                      `json:"cold_start_ms,omitempty"`
	Pruning     *strategy.PruneStatsSnapshot `json:"pruning,omitempty"`
	// Cache carries the decoded-block cache counters for the block-cache/*
	// cells that ran with a cache enabled.
	Cache *core.BlockCacheStats `json:"cache,omitempty"`
}

// benchFile is the stamped envelope written since PR 5. Earlier bench files
// (BENCH_PR1/PR4) are bare point arrays.
type benchFile struct {
	GitCommit string       `json:"git_commit"`
	Date      string       `json:"date"`
	Points    []benchPoint `json:"points"`
}

// gitCommit resolves the working tree's HEAD for provenance stamping; bench
// numbers without the commit they were measured at are unreviewable.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func writeBenchJSON(path string, points []experiments.ScalabilityPoint) error {
	rows := make([]benchPoint, len(points))
	for i, p := range points {
		rows[i] = benchPoint{
			Method:          p.Method,
			Implementations: p.Implementations,
			Connectivity:    p.Connectivity,
			MeanLatencyMS:   float64(p.MeanLatency) / float64(time.Millisecond),
			Pruning:         p.Prune,
			Cache:           p.Cache,
		}
		if strings.HasPrefix(p.Method, "cold-start/") {
			rows[i].ColdStartMS = rows[i].MeanLatencyMS
		}
	}
	data, err := json.MarshalIndent(benchFile{
		GitCommit: gitCommit(),
		Date:      time.Now().UTC().Format(time.RFC3339),
		Points:    rows,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
