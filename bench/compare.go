package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// "bench compare A B" judges side B against side A, the base: for every
// end-to-end metric and workload it applies the metric's bound from
// BENCHMARK.json and prints one row with both medians, the ratio and a
// verdict. The metrics moved to the client.* list (see metrics.go) follow,
// judged the same way with the issue's bounds: runs that alternate base and
// change can resolve what the gate's ten runs in a row cannot. Each side is a
// -record file holding one or more runs.

// benchmarkFile is the part of BENCHMARK.json compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict of one metric on one workload.
type verdict string

const (
	verdictOK verdict = "ok"
	// verdictWorse: B's median is worse than A's by more than the bound.
	verdictWorse verdict = "worse"
	// verdictUnresolved: A's own runs spread wider than the bound and the two
	// sides' runs overlap, so the data cannot tell a regression from noise.
	verdictUnresolved verdict = "unresolved"
)

// row is one line of the comparison.
type row struct {
	workload, metric, unit string
	a, b                   float64 // medians
	runsA, runsB           int
	ratio                  float64 // b ÷ a; the base is side A
	worseBy                float64 // share of a by which b is worse (negative: better)
	spread                 float64 // A's run-to-run spread as a share of its median
	bound                  float64
	gated                  bool // an end-to-end metric of BENCHMARK.json, not a moved one
	verdict                verdict
}

// judge compares the runs of one metric. lower says whether lower is better.
func judge(a, b []float64, lower bool, bound float64) (r row) {
	r.runsA, r.runsB, r.bound = len(a), len(b), bound
	// Medians as the gate computes them: the mean of the two middle runs when
	// their number is even.
	q1, qa, q3 := quartiles(a)
	_, qb, _ := quartiles(b)
	r.a, r.b = qa, qb
	sa, sb := sortedCopy(a), sortedCopy(b)
	if r.a != 0 {
		r.ratio = r.b / r.a
		r.worseBy = (r.b - r.a) / r.a
		if !lower {
			r.worseBy = -r.worseBy
		}
		// The interquartile range needs four runs to mean anything; below
		// that the whole range is the honest spread.
		if len(a) >= 4 {
			r.spread = (q3 - q1) / r.a
		} else {
			r.spread = (sa[len(sa)-1] - sa[0]) / r.a
		}
	}
	// Overlap: not every run of B reads better than every run of A, nor worse.
	allBetter := sb[len(sb)-1] < sa[0]
	allWorse := sb[0] > sa[len(sa)-1]
	if !lower {
		allBetter, allWorse = allWorse, allBetter
	}
	switch {
	case r.spread > bound && !allBetter && !allWorse:
		r.verdict = verdictUnresolved
	case r.worseBy > bound:
		r.verdict = verdictWorse
	default:
		r.verdict = verdictOK
	}
	return r
}

// readRecords loads a -record file, keeping the untraced runs: end-to-end
// numbers are never taken from a traced run.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

// compareRecords builds the rows for every workload both sides ran.
func compareRecords(bf *benchmarkFile, a, b map[string][]record) []row {
	var names []string
	for name := range a {
		if len(b[name]) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	values := func(rs []record, metric string) []float64 {
		v := make([]float64, len(rs))
		for i, r := range rs {
			v[i] = r.Metrics[metric]
		}
		return v
	}
	var rows []row
	for _, name := range names {
		for _, m := range bf.EndToEnd {
			r := judge(values(a[name], m.Name), values(b[name], m.Name), m.Better == "lower", m.Bound)
			r.workload, r.metric, r.unit, r.gated = name, m.Name, m.Unit, true
			rows = append(rows, r)
		}
		for _, m := range moved {
			r := judge(values(a[name], m.name), values(b[name], m.name), m.better == "lower", m.bound)
			r.workload, r.metric, r.unit = name, m.name, m.unit
			rows = append(rows, r)
		}
	}
	return rows
}

func compareMain(args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: bench compare A.jsonl B.jsonl (run from the repository root)")
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	a, err := readRecords(args[0])
	if err != nil {
		return err
	}
	b, err := readRecords(args[1])
	if err != nil {
		return err
	}
	rows := compareRecords(&bf, a, b)
	if len(rows) == 0 {
		return fmt.Errorf("%s and %s share no workload", args[0], args[1])
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median (runs)\tB median (runs)\tB/A\tworse by\tA spread\tbound\tgate\tverdict")
	counts := map[verdict]int{}
	for _, r := range rows {
		gate := "moved"
		if r.gated {
			gate = "gated"
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4f %s (%d)\t%.4f %s (%d)\t%.3f\t%+.1f%%\t%.1f%%\t%.0f%%\t%s\t%s\n",
			r.workload, r.metric, r.a, r.unit, r.runsA, r.b, r.unit, r.runsB,
			r.ratio, r.worseBy*100, r.spread*100, r.bound*100, gate, r.verdict)
		counts[r.verdict]++
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "%d ok, %d worse, %d unresolved; every ratio is B over A, every share is of A's median\n",
		counts[verdictOK], counts[verdictWorse], counts[verdictUnresolved])
	if counts[verdictWorse] > 0 {
		return fmt.Errorf("%d metric(s) worse than the bound allows", counts[verdictWorse])
	}
	return nil
}
