package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"goalrec"
)

func testLibrary(t *testing.T) *goalrec.Library {
	t.Helper()
	b := goalrec.NewBuilder()
	add := func(goal string, actions ...string) {
		t.Helper()
		if err := b.AddImplementation(goal, actions...); err != nil {
			t.Fatal(err)
		}
	}
	add("olivier salad", "potatoes", "carrots", "pickles")
	add("mashed potatoes", "potatoes", "nutmeg", "butter")
	add("pan-fried carrots", "carrots", "nutmeg")
	return b.Build()
}

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(testLibrary(t), nil))
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf [1 << 16]byte
	n, _ := resp.Body.Read(buf[:])
	return resp, buf[:n]
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestStats(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Implementations != 3 || got.Actions != 5 || got.Goals != 3 {
		t.Errorf("stats = %+v", got)
	}
}

func TestRecommend(t *testing.T) {
	ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/recommend",
		`{"activity": ["potatoes", "carrots"], "strategy": "breadth", "k": 3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var got recommendResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Strategy != "breadth" {
		t.Errorf("strategy = %q", got.Strategy)
	}
	if len(got.Recommendations) == 0 {
		t.Fatal("no recommendations")
	}
	for _, r := range got.Recommendations {
		if r.Action == "potatoes" || r.Action == "carrots" {
			t.Errorf("performed action recommended: %v", r)
		}
	}
}

func TestRecommendDefaults(t *testing.T) {
	ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/recommend", `{"activity": ["potatoes"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var got recommendResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Strategy != "breadth" {
		t.Errorf("default strategy = %q, want breadth", got.Strategy)
	}
}

func TestRecommendValidation(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		name string
		body string
	}{
		{"empty activity", `{"activity": []}`},
		{"bad strategy", `{"activity": ["potatoes"], "strategy": "magic"}`},
		{"bad k", `{"activity": ["potatoes"], "k": -2}`},
		{"unknown field", `{"activity": ["potatoes"], "bogus": 1}`},
		{"malformed", `{`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/recommend", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status = %d, body %s", resp.StatusCode, body)
			}
			var e errorResponse
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Errorf("error envelope missing: %s", body)
			}
		})
	}
}

func TestRecommendMethodNotAllowed(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/recommend")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/recommend status = %d, want 405", resp.StatusCode)
	}
}

func TestSpaces(t *testing.T) {
	ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/spaces", `{"activity": ["potatoes", "carrots"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var got spacesResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Goals) != 3 {
		t.Fatalf("goals = %v", got.Goals)
	}
	byName := map[string]float64{}
	for _, g := range got.Goals {
		byName[g.Goal] = g.Progress
	}
	if byName["olivier salad"] != 2.0/3.0 {
		t.Errorf("olivier progress = %v", byName["olivier salad"])
	}
	if len(got.Actions) == 0 {
		t.Error("empty action space")
	}
}

func TestExplain(t *testing.T) {
	ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/explain",
		`{"activity": ["potatoes", "carrots"], "action": "pickles"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var got explainResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Explanations) != 1 {
		t.Fatalf("explanations = %v", got.Explanations)
	}
	e := got.Explanations[0]
	if e.Goal != "olivier salad" || e.ProgressAfter != 1 {
		t.Errorf("explanation = %+v", e)
	}
	// Missing fields are rejected.
	resp, _ = postJSON(t, ts.URL+"/v1/explain", `{"activity": ["potatoes"]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing action status = %d", resp.StatusCode)
	}
}

func TestRequestLogging(t *testing.T) {
	var buf bytes.Buffer
	logger := log.New(&buf, "", 0)
	ts := httptest.NewServer(New(testLibrary(t), logger))
	defer ts.Close()
	postJSON(t, ts.URL+"/v1/recommend", `{"activity": ["potatoes"]}`)
	if !strings.Contains(buf.String(), "recommend strategy=breadth") {
		t.Errorf("request not logged: %q", buf.String())
	}
}

func TestMetrics(t *testing.T) {
	ts := newTestServer(t)
	// One success, one error.
	if _, err := http.Get(ts.URL + "/v1/stats"); err != nil {
		t.Fatal(err)
	}
	postJSON(t, ts.URL+"/v1/recommend", `{"activity": []}`)

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		Requests map[string]int `json:"requests"`
		Errors   map[string]int `json:"errors"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Requests["stats"] != 1 {
		t.Errorf("stats requests = %d, want 1", got.Requests["stats"])
	}
	if got.Requests["recommend"] != 1 || got.Errors["recommend"] != 1 {
		t.Errorf("recommend counters = %+v", got)
	}
	if got.Errors["stats"] != 0 {
		t.Errorf("stats errors = %d", got.Errors["stats"])
	}
}

func TestConcurrentRequests(t *testing.T) {
	ts := newTestServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			strategyName := []string{"breadth", "focus-cmp", "focus-cl", "best-match"}[i%4]
			resp, err := http.Post(ts.URL+"/v1/recommend", "application/json",
				strings.NewReader(`{"activity": ["potatoes"], "strategy": "`+strategyName+`"}`))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPruningServer serves an impact-ordered library — the layout on which
// Focus takes the block-max scan — checks every strategy's bounded response
// equals the head of the library's full ranking (k = −1, which never scans),
// and verifies the metrics endpoint reports the pruning block enabled, with
// live counters.
func TestPruningServer(t *testing.T) {
	lib := testLibrary(t).ImpactOrdered()
	pruned := httptest.NewServer(New(lib, nil))
	t.Cleanup(pruned.Close)

	activity := []string{"potatoes", "carrots"}
	for _, strategy := range []string{"focus-cmp", "focus-cl", "breadth", "best-match"} {
		body := `{"activity": ["potatoes", "carrots"], "strategy": "` + strategy + `", "k": 3}`
		resp, raw := postJSON(t, pruned.URL+"/v1/recommend", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d: %s", strategy, resp.StatusCode, raw)
		}
		var got recommendResponse
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		want := lib.MustRecommender(goalrec.Strategy(strategy)).Recommend(activity, -1)
		if len(want) > 3 {
			want = want[:3]
		}
		if len(got.Recommendations) != len(want) {
			t.Fatalf("%s: %d recommendations, want %d: %s", strategy, len(got.Recommendations), len(want), raw)
		}
		for i, w := range want {
			if g := got.Recommendations[i]; g.Action != w.Action || g.Score != w.Score {
				t.Errorf("%s: rank %d = %+v, want %+v", strategy, i, g, w)
			}
		}
	}

	resp, err := http.Get(pruned.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var metrics struct {
		Pruning struct {
			Enabled  bool                       `json:"enabled"`
			Counters goalrec.PruneStatsSnapshot `json:"counters"`
		} `json:"pruning"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	if !metrics.Pruning.Enabled {
		t.Error("metrics report pruning disabled on a size-sorted snapshot")
	}
	if metrics.Pruning.Counters.ImplsAssociated == 0 {
		t.Errorf("pruning counters never moved: %+v", metrics.Pruning.Counters)
	}
}

// TestPruningDisabledMetrics pins the metrics shape on a snapshot that is not
// size-sorted: the pruning block is present, disabled, and Focus queries
// leave it all zeros.
func TestPruningDisabledMetrics(t *testing.T) {
	ts := newTestServer(t)
	postJSON(t, ts.URL+"/v1/recommend", `{"activity": ["potatoes"], "strategy": "focus-cl", "k": 3}`)
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var metrics struct {
		Pruning struct {
			Enabled  bool                       `json:"enabled"`
			Counters goalrec.PruneStatsSnapshot `json:"counters"`
		} `json:"pruning"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	if metrics.Pruning.Enabled || metrics.Pruning.Counters != (goalrec.PruneStatsSnapshot{}) {
		t.Errorf("unexpected pruning block: %+v", metrics.Pruning)
	}
}

// TestMetricsLibraryBlock: /v1/metrics says what backs the served library —
// heap for a built one, mapped after a reload through the daemon's sidecar
// load path — while /v1/stats stays byte-identical across the two.
func TestMetricsLibraryBlock(t *testing.T) {
	lib := testLibrary(t)
	path := filepath.Join(t.TempDir(), "lib.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := lib.SaveJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	parsed, err := goalrec.LoadLibraryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(parsed, nil, WithReloader(func() (*goalrec.Library, error) {
		lib, _, err := goalrec.LoadLibraryFileMapped(path, false)
		return lib, err
	}))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	library := func() goalrec.LibraryBacking {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var got struct {
			Library goalrec.LibraryBacking `json:"library"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		return got.Library
	}
	stats := func() string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		// The epoch moves with the reload; nothing else may.
		return regexp.MustCompile(`"epoch":\d+`).ReplaceAllString(string(b), `"epoch":N`)
	}

	heap, heapStats := library(), stats()
	if heap.Backing != "heap" || heap.IndexBytes != parsed.Backing().IndexBytes || heap.IndexBytes.AGI == 0 ||
		heap.VocabNames != parsed.Backing().VocabNames {
		t.Fatalf("library block of a parsed library: %+v", heap)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/reload", ``); resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: %d %s", resp.StatusCode, body)
	}
	mapped := library()
	if mapped.Backing != "mapped" || mapped.IndexBytes != heap.IndexBytes || mapped.VocabNames != heap.VocabNames ||
		mapped.MappedGenerations < 1 || mapped.MappedBytes <= 0 || !strings.HasPrefix(mapped.Sidecar, goalrec.SidecarRebuilt) {
		t.Fatalf("library block after a sidecar reload: %+v (before: %+v)", mapped, heap)
	}
	if got := stats(); got != heapStats {
		t.Fatalf("/v1/stats changed with the backing:\n heap:   %s\n mapped: %s", heapStats, got)
	}

	// The ledger separates base from delta. A parsed library is all heap and
	// all base; a mapped one serves its names from the mapping too; neither
	// has a tail or an overlay.
	if v := heap.Vocab; v.Backing != "heap" || v.BaseNames != 0 || v.GrownNames != heap.VocabNames || v.TableBytes != 0 {
		t.Fatalf("vocab ledger of a parsed library: %+v", v)
	}
	if v := mapped.Vocab; v.Backing != "mapped" || v.BaseNames != mapped.VocabNames || v.GrownNames != 0 || v.TableBytes <= 0 {
		t.Fatalf("vocab ledger of a mapped library: %+v", v)
	}
	flat := goalrec.OverlayRows{}
	if mapped.TailImplementations != 0 || mapped.Overlay != flat || mapped.IndexBytes.Tail != 0 || mapped.IndexBytes.Overlay != 0 {
		t.Fatalf("delta ledger of a freshly mapped library: %+v", mapped)
	}
	// One ingest: the base stays what and where it was, the delta shows up
	// beside it, and the new names are the only ones on the heap.
	ingest := `{"implementations":[{"goal":"ledger-goal","actions":["ledger-action","` + lib.Actions()[0] + `"]}]}`
	if resp, body := postJSON(t, ts.URL+"/v1/implementations", ingest); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d %s", resp.StatusCode, body)
	}
	grown := library()
	if grown.Backing != "mapped" || grown.TailImplementations != 1 ||
		grown.Overlay.ActionRows != 2 || grown.Overlay.GoalRows != 1 || grown.Overlay.Pages < 2 ||
		grown.IndexBytes.Tail <= 0 || grown.IndexBytes.Overlay <= 0 {
		t.Fatalf("delta ledger after one ingest: %+v", grown)
	}
	base, got := mapped.IndexBytes, grown.IndexBytes
	got.Tail, got.Overlay = 0, 0
	if got != base {
		t.Fatalf("an ingest changed the base's index bytes: %+v -> %+v", base, got)
	}
	if v := grown.Vocab; v.Backing != "mapped" || v.BaseNames != mapped.VocabNames || v.GrownNames != 2 ||
		grown.VocabNames != mapped.VocabNames+2 {
		t.Fatalf("vocab ledger after one ingest: %+v (names %d)", v, grown.VocabNames)
	}
}
