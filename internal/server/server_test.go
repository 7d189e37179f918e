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

func testLibrary(t testing.TB) *goalrec.Library {
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

// TestMetricsCacheBlock: /v1/metrics sums the current epoch's response
// caches. A sent three times and B once is two misses and two hits, the
// first of which promoted A out of probation, where B still waits.
func TestMetricsCacheBlock(t *testing.T) {
	ts := newTestServer(t)
	for _, activity := range []string{`["potatoes"]`, `["potatoes"]`, `["carrots"]`, `["potatoes"]`} {
		if resp, body := postJSON(t, ts.URL+"/v1/recommend", `{"activity": `+activity+`, "strategy": "best-match"}`); resp.StatusCode != http.StatusOK {
			t.Fatalf("recommend %s: %d %s", activity, resp.StatusCode, body)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		Cache *goalrec.CacheStats `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	want := goalrec.CacheStats{Entries: 2, Probation: 1, Hits: 2, Misses: 2, Promoted: 1}
	if got.Cache == nil || *got.Cache != want {
		t.Fatalf("cache block = %+v, want %+v", got.Cache, want)
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

// TestStartBlockFrozenAtFirstReady: /v1/metrics' "start" block is null until
// /readyz first answers 200 — a 503 while draining does not freeze it — and
// then keeps the counters of that moment, while the "io" block goes on
// counting: here a reload that opens, checksums and maps a sidecar.
func TestStartBlockFrozenAtFirstReady(t *testing.T) {
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
	srv := New(lib, nil, WithReloader(func() (*goalrec.Library, error) {
		lib, _, err := goalrec.LoadLibraryFileMapped(path)
		return lib, err
	}))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	type block struct {
		IO    goalrec.IOStats  `json:"io"`
		Start *json.RawMessage `json:"start"`
	}
	metrics := func() block {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m block
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	ready := func(want int) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("/readyz = %d, want %d", resp.StatusCode, want)
		}
	}

	srv.SetDraining(true)
	ready(http.StatusServiceUnavailable)
	if m := metrics(); m.Start != nil {
		t.Fatalf("start block %s before the first ready /readyz", *m.Start)
	}
	srv.SetDraining(false)
	ready(http.StatusOK)
	first := metrics()
	if first.Start == nil {
		t.Fatal("no start block after a ready /readyz")
	}
	var start struct {
		goalrec.IOStats
		HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
		GCCycles       uint64 `json:"gc_cycles"`
	}
	if err := json.Unmarshal(*first.Start, &start); err != nil {
		t.Fatal(err)
	}
	if start.IOStats != first.IO || start.HeapAllocBytes == 0 {
		t.Fatalf("start block %s, want the io block %+v and the heap allocated so far", *first.Start, first.IO)
	}

	if resp, body := postJSON(t, ts.URL+"/v1/reload", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("reload = %d: %s", resp.StatusCode, body)
	}
	ready(http.StatusOK)
	later := metrics()
	if string(*later.Start) != string(*first.Start) {
		t.Fatalf("start block moved from %s to %s", *first.Start, *later.Start)
	}
	if io := later.IO; io.SnapshotOpens <= first.IO.SnapshotOpens || io.BytesChecksummed <= first.IO.BytesChecksummed || io.Mmaps <= first.IO.Mmaps {
		t.Fatalf("io block %+v after a sidecar reload, was %+v", io, first.IO)
	}
}

// TestMetricsLibraryBlock: /v1/metrics says what backs the served library —
// heap for a built one, mapped after a reload through the daemon's sidecar
// load path — while /v1/stats stays byte-identical across the two.
func TestMetricsLibraryBlock(t *testing.T) {
	b := goalrec.NewBuilder()
	for _, impl := range []goalrec.Implementation{
		{Goal: "olivier salad", Actions: []string{"potatoes", "carrots", "pickles"}},
		{Goal: "mashed potatoes", Actions: []string{"potatoes", "nutmeg", "butter"}},
		{Goal: "pan-fried carrots", Actions: []string{"carrots", "nutmeg"}},
		{Goal: "olivier salad", Actions: []string{"potatoes", "eggs"}},
	} {
		if err := b.AddImplementation(impl.Goal, impl.Actions...); err != nil {
			t.Fatal(err)
		}
	}
	lib := b.Build()
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
		lib, _, err := goalrec.LoadLibraryFileMapped(path)
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
	// The GA-idx stores its 3+1 offsets and the one row of a goal whose
	// implementations share an action: olivier salad's 4 (action, count)
	// pairs, potatoes counted twice.
	if want := int64(4*(3+1) + 8*4); heap.IndexBytes.GA != want {
		t.Fatalf("index_bytes.ga %d, want %d", heap.IndexBytes.GA, want)
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
	if v := heap.Vocab; v.Backing != "heap" || v.BaseNames != 0 || v.GrownNames != heap.VocabNames || v.TableBytes != 0 || v.Table != "" || v.Checksum != "computed" {
		t.Fatalf("vocab ledger of a parsed library: %+v", v)
	}
	if v := mapped.Vocab; v.Backing != "mapped" || v.BaseNames != mapped.VocabNames || v.GrownNames != 0 || v.TableBytes <= 0 || v.Table != "sealed" || v.Checksum != "sealed" {
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
		grown.VocabNames != mapped.VocabNames+2 || v.Checksum != "computed" {
		t.Fatalf("vocab ledger after one ingest: %+v (names %d)", v, grown.VocabNames)
	}
	if v := goalrec.NewBuilder().Build().Backing().Vocab; v.Checksum != "" || v.Table != "" {
		t.Fatalf("vocab ledger of a library without names: %+v", v)
	}
}
