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
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"goalrec/internal/experiments"
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

func run() (runErr error) {
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
	scalingQueries := flag.Int("scaling-queries", 0, "query activities timed per Figure 7 cell (0 selects the default)")
	impactOrdering := flag.Bool("impact-ordering", false, "impact-order each swept library before timing (Focus then takes the block-max scan)")
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
		// The close error is the run's: a failed flush (say, a full disk)
		// must not leave a truncated results file behind a zero exit.
		defer func() {
			if err := f.Close(); runErr == nil {
				runErr = err
			}
		}()
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
		if err := emit(experiments.Figure7(experiments.ScalabilityConfig{
			Sizes: sizes, Actions: *scalingActions, Seed: *seed,
			Queries:        *scalingQueries,
			ImpactOrdering: *impactOrdering,
		})); err != nil {
			return err
		}
		if err := emit(experiments.ConnectivitySweep(20000, []int{8000, 2000, 500}, *seed)); err != nil {
			return err
		}
	}
	return nil
}
