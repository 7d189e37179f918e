package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestJudge(t *testing.T) {
	cases := []struct {
		name  string
		a, b  []float64
		lower bool
		bound float64
		want  verdict
	}{
		{"same numbers", []float64{10, 10.1, 9.9}, []float64{10, 10.05, 9.95}, true, 0.10, verdictOK},
		{"slower within the bound", []float64{10, 10.1, 9.9}, []float64{10.8, 10.9, 10.7}, true, 0.10, verdictOK},
		{"slower beyond the bound", []float64{10, 10.1, 9.9}, []float64{11.5, 11.6, 11.4}, true, 0.10, verdictWorse},
		{"faster is never worse", []float64{10, 10.1, 9.9}, []float64{5, 5.1, 4.9}, true, 0.10, verdictOK},
		{"throughput dropped beyond the bound", []float64{1000, 1010, 990}, []float64{850, 860, 840}, false, 0.10, verdictWorse},
		{"throughput rose", []float64{1000, 1010, 990}, []float64{1200, 1210, 1190}, false, 0.10, verdictOK},
		// A's own runs span 30 % of their median and B falls inside that span:
		// neither "unchanged" nor "worse" can be told.
		{"noisy base, overlapping runs", []float64{8.5, 10, 11.5}, []float64{9, 11.6, 12}, true, 0.10, verdictUnresolved},
		// Just as noisy, but every run of B is slower than every run of A.
		{"noisy base, separated and worse", []float64{8.5, 10, 11.5}, []float64{14, 15, 16}, true, 0.10, verdictWorse},
		{"noisy base, separated and better", []float64{8.5, 10, 11.5}, []float64{5, 6, 7}, true, 0.10, verdictOK},
	}
	for _, c := range cases {
		if got := judge(c.a, c.b, c.lower, c.bound).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestJudgeRatiosHaveTheirBase(t *testing.T) {
	r := judge([]float64{100, 100, 100}, []float64{120, 120, 120}, true, 0.10)
	if r.a != 100 || r.b != 120 || r.ratio != 1.2 || r.worseBy < 0.199 || r.worseBy > 0.201 {
		t.Errorf("lower is better: got a=%v b=%v ratio=%v worseBy=%v", r.a, r.b, r.ratio, r.worseBy)
	}
	r = judge([]float64{100, 100, 100}, []float64{80, 80, 80}, false, 0.10)
	if r.ratio != 0.8 || r.worseBy < 0.199 || r.worseBy > 0.201 {
		t.Errorf("higher is better: got ratio=%v worseBy=%v", r.ratio, r.worseBy)
	}
}

func TestCompareRecords(t *testing.T) {
	bf := &benchmarkFile{}
	if err := json.Unmarshal([]byte(`{"end_to_end": [
		{"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
		{"name": "throughput_rps", "unit": "req/s", "better": "higher", "bound": 0.1}]}`), bf); err != nil {
		t.Fatal(err)
	}
	side := func(lat, thr float64) map[string][]record {
		var rs []record
		for i := 0; i < 3; i++ {
			rs = append(rs, record{Workload: "hot_http", Metrics: map[string]float64{
				"latency_p50_ms": lat + float64(i)*0.001, "throughput_rps": thr + float64(i)}})
		}
		return map[string][]record{"hot_http": rs, "only_here": rs}
	}
	a, b := side(1.0, 5000), side(1.3, 5010)
	delete(b, "only_here")
	rows := compareRecords(bf, a, b)
	if want := 2 + len(moved); len(rows) != want {
		t.Fatalf("got %d rows, want %d (one workload in common: two gated metrics and the moved ones)", len(rows), want)
	}
	if rows[0].metric != "latency_p50_ms" || rows[0].verdict != verdictWorse {
		t.Errorf("latency row: %+v", rows[0])
	}
	if rows[1].metric != "throughput_rps" || rows[1].verdict != verdictOK {
		t.Errorf("throughput row: %+v", rows[1])
	}
	if rows[1].gated != true || rows[2].gated != false || rows[2].metric != moved[0].name {
		t.Errorf("the moved metrics do not follow the gated ones: %+v", rows[2])
	}
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the names the
// harness reports in step: the driver refuses a run whose result line lacks a
// listed metric.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness defines %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the harness reports %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the harness %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the harness reports %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the harness %+v", i, m, d)
		}
	}
}

// TestBaselineMatchesCode keeps the frozen parameters written down in
// baseline.json — what the issue wanted in BENCHMARK.json and its schema has
// no key for — equal to the ones the harness runs with.
func TestBaselineMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var base struct {
		Frozen struct {
			Connections int
			K           int
			Library     struct{ Implementations, Actions int }
			Workloads   map[string]struct {
				OpenRateRps    float64 `json:"open_rate_rps"`
				Pool, Sessions int
				LadderRequests int `json:"ladder_requests"`
			}
		}
		Gated []struct {
			Name  string
			Bound float64
		}
		Moved []struct {
			Name       string
			IssueBound any `json:"issue_bound"`
		}
	}
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	f := base.Frozen
	if f.Connections != loadClients || f.K != k || f.Library.Implementations != fullSizes.impls || f.Library.Actions != fullSizes.actions {
		t.Errorf("baseline.json freezes %+v, the harness runs %d connections, k %d, %+v", f, loadClients, k, fullSizes)
	}
	for i := range workloads {
		wl := &workloads[i]
		w, ok := f.Workloads[wl.name]
		if !ok || w.OpenRateRps != wl.rate || w.LadderRequests != wl.ladderN {
			t.Errorf("%s: baseline.json has %+v, the harness rate %v and %d ladder requests", wl.name, w, wl.rate, wl.ladderN)
		}
	}
	if f.Workloads["hot_http"].Pool != fullSizes.pool || f.Workloads["user_session"].Sessions != fullSizes.sessions {
		t.Errorf("baseline.json pool/sessions differ from %+v", fullSizes)
	}
	if len(base.Gated) != len(endToEnd) {
		t.Fatalf("baseline.json lists %d gated metrics, the harness %d", len(base.Gated), len(endToEnd))
	}
	for i, g := range base.Gated {
		if g.Name != endToEnd[i].name || g.Bound != endToEnd[i].bound {
			t.Errorf("gated metric %d: baseline.json has %+v, the harness %+v", i, g, endToEnd[i])
		}
	}
	for i, d := range moved {
		if i >= len(base.Moved) || base.Moved[i].Name != d.name || base.Moved[i].IssueBound != d.bound {
			t.Errorf("moved metric %s with bound %v is not entry %d of baseline.json's moved list", d.name, d.bound, i)
		}
	}
}
