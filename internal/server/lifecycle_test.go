// Request-lifecycle tests: deadlines, client cancellation, admission
// control, readiness, reload failure streaks, panic recovery, and the
// lifecycle counters in /v1/metrics.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"goalrec"
	"goalrec/internal/faultinject"
)

// metricsSnapshot decodes /v1/metrics.
type metricsSnapshot struct {
	Epoch               uint64           `json:"epoch"`
	Requests            map[string]int64 `json:"requests"`
	Errors              map[string]int64 `json:"errors"`
	Lifecycle           map[string]int64 `json:"lifecycle"`
	ReloadFailureStreak int64            `json:"reload_failure_streak"`
}

func getMetrics(t *testing.T, ts *httptest.Server) metricsSnapshot {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m metricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestLifecycleMetricsKeys(t *testing.T) {
	ts := newTestServer(t)
	m := getMetrics(t, ts)
	for _, key := range []string{"sheds", "canceled", "deadline_exceeded", "reload_failures"} {
		if v, ok := m.Lifecycle[key]; !ok || v != 0 {
			t.Errorf("lifecycle[%q] = %d (present=%v), want 0 and present", key, v, ok)
		}
	}
	if m.ReloadFailureStreak != 0 {
		t.Errorf("reload_failure_streak = %d, want 0", m.ReloadFailureStreak)
	}

	// Every key the end-to-end benchmark reads off a durable node, by name
	// (bench/run.go): a renamed or dropped key would read there as 0.
	durable, _, _ := newDegradableServer(t)
	_, body := getJSON(t, durable.URL+"/v1/metrics")
	for _, path := range [][]string{
		{"epoch"}, {"requests"}, {"errors"}, {"lifecycle", "sheds"}, {"library", "backing"},
		{"pruning", "enabled"}, {"pruning", "counters"},
		{"users", "enabled"}, {"users", "counters", "hits"}, {"users", "counters", "advances"},
		{"users", "counters", "cold"}, {"users", "counters", "evictions"}, {"users", "counters", "rebuilds"},
		{"users", "counters", "appends"}, {"users", "counters", "deletes"},
		{"storage", "enabled"}, {"storage", "status", "degradations"}, {"storage", "status", "mode"},
		{"reload_failure_streak"},
	} {
		var at any = body
		for _, key := range path {
			block, _ := at.(map[string]any)
			var ok bool
			if at, ok = block[key]; !ok {
				t.Errorf("metrics lack %v", path)
				break
			}
		}
	}
}

func TestRequestTimeoutExpiresAs504(t *testing.T) {
	// A nanosecond deadline has always expired by the time scoring starts,
	// so the 504 path is deterministic.
	ts := httptest.NewServer(New(testLibrary(t), nil, WithRequestTimeout(time.Nanosecond)))
	defer ts.Close()
	resp, body := postJSON(t, ts.URL+"/v1/recommend", `{"activity": ["potatoes"]}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Error != "deadline exceeded" {
		t.Errorf("body = %s, want {\"error\":\"deadline exceeded\"}", body)
	}
	m := getMetrics(t, ts)
	if m.Lifecycle["deadline_exceeded"] != 1 {
		t.Errorf("deadline_exceeded = %d, want 1", m.Lifecycle["deadline_exceeded"])
	}
	if m.Errors["recommend"] != 1 {
		t.Errorf("recommend errors = %d, want 1", m.Errors["recommend"])
	}
}

func TestRequestTimeoutGenerousPasses(t *testing.T) {
	ts := httptest.NewServer(New(testLibrary(t), nil, WithRequestTimeout(10*time.Second)))
	defer ts.Close()
	resp, body := postJSON(t, ts.URL+"/v1/recommend", `{"activity": ["potatoes"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
}

// TestClientDisconnectAborts pins the 499 path: a request whose context is
// already canceled (the server-side shape of a client hangup) is aborted
// by the scoring entry check and counted as canceled, not as a server
// error.
func TestClientDisconnectAborts(t *testing.T) {
	s := New(testLibrary(t), nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct{ name, path, body string }{
		{"recommend", "/v1/recommend", `{"activity": ["potatoes"]}`},
		{"spaces", "/v1/spaces", `{"activity": ["potatoes"]}`},
		{"explain", "/v1/explain", `{"activity": ["potatoes"], "action": "pickles"}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)).WithContext(ctx)
			rr := httptest.NewRecorder()
			s.ServeHTTP(rr, req)
			if rr.Code != statusClientClosedRequest {
				t.Fatalf("status = %d, want %d: %s", rr.Code, statusClientClosedRequest, rr.Body)
			}
		})
	}
	var canceled int64
	fmt.Sscanf(s.lifecycle.Get("canceled").String(), "%d", &canceled)
	if canceled != 3 {
		t.Errorf("canceled counter = %d, want 3", canceled)
	}
}

// TestCancelMidScoring drives a request through faultinject.CancelAfter so
// the context dies while the request is in flight rather than at entry.
func TestCancelMidScoring(t *testing.T) {
	s := New(testLibrary(t), nil)
	h := faultinject.CancelAfter(faultinject.SlowHandler(s, 50*time.Millisecond), time.Millisecond)
	req := httptest.NewRequest(http.MethodPost, "/v1/recommend",
		strings.NewReader(`{"activity": ["potatoes"]}`))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	// SlowHandler honors the canceled context and abandons the request
	// before it reaches the server, mirroring net/http dropping the
	// connection; nothing must have been written and no panic raised.
	if rr.Body.Len() != 0 {
		t.Errorf("abandoned request wrote a body: %s", rr.Body)
	}
}

func TestActivityTooLong(t *testing.T) {
	ts := newTestServer(t)
	long := `["a"` + strings.Repeat(`,"a"`, maxActivityActions) + `]`
	for _, tc := range []struct{ name, path, body string }{
		{"recommend", "/v1/recommend", `{"activity": ` + long + `}`},
		{"spaces", "/v1/spaces", `{"activity": ` + long + `}`},
		{"explain", "/v1/explain", `{"activity": ` + long + `, "action": "pickles"}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+tc.path, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status = %d, body %.120s", resp.StatusCode, body)
			}
			var e errorResponse
			if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "activity too long") {
				t.Errorf("error envelope = %.120s", body)
			}
		})
	}
}

func TestReadyzDraining(t *testing.T) {
	srv := New(testLibrary(t), nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	get := func() (int, map[string]interface{}) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]interface{}
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, m
	}

	if code, m := get(); code != http.StatusOK || m["status"] != "ok" {
		t.Fatalf("ready server: code=%d body=%v", code, m)
	}
	srv.SetDraining(true)
	if code, m := get(); code != http.StatusServiceUnavailable || m["status"] != "draining" {
		t.Fatalf("draining server: code=%d body=%v", code, m)
	}
	// Draining must not stop the instance from serving in-flight traffic.
	if resp, body := postJSON(t, ts.URL+"/v1/recommend", `{"activity": ["potatoes"]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("recommend while draining = %d: %s", resp.StatusCode, body)
	}
	srv.SetDraining(false)
	if code, _ := get(); code != http.StatusOK {
		t.Fatalf("undrained server not ready: %d", code)
	}
}

// TestReloadFailureStreak covers the /v1/reload error path end to end: a
// failing reloader answers 500 while the old epoch keeps serving, the
// failure streak grows and is visible in /readyz and /v1/metrics, and one
// success resets it.
func TestReloadFailureStreak(t *testing.T) {
	lib := testLibrary(t)
	next := goalrec.NewBuilder()
	if err := next.AddImplementation("borscht", "beets", "onions"); err != nil {
		t.Fatal(err)
	}
	rl := &faultinject.Reloader{FailFirst: 2, Lib: next.Build()}
	srv := New(lib, nil, WithReloader(rl.Load))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	epoch0 := srv.Epoch()

	for i := 1; i <= 2; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/reload", "")
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("reload %d status = %d: %s", i, resp.StatusCode, body)
		}
		var e errorResponse
		if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "reload failed") {
			t.Errorf("reload %d envelope = %s", i, body)
		}
		if srv.Epoch() != epoch0 {
			t.Fatalf("failed reload moved the epoch: %d -> %d", epoch0, srv.Epoch())
		}
		if got := srv.ReloadFailureStreak(); got != int64(i) {
			t.Errorf("streak after failure %d = %d", i, got)
		}
	}
	// The library must still answer queries from the original epoch.
	if resp, body := postJSON(t, ts.URL+"/v1/recommend", `{"activity": ["potatoes"]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("recommend after failed reloads = %d: %s", resp.StatusCode, body)
	}
	m := getMetrics(t, ts)
	if m.Lifecycle["reload_failures"] != 2 || m.ReloadFailureStreak != 2 {
		t.Errorf("metrics reload_failures=%d streak=%d, want 2/2", m.Lifecycle["reload_failures"], m.ReloadFailureStreak)
	}

	// Third call succeeds: epoch advances and the streak resets (but the
	// cumulative failure counter does not).
	resp, body := postJSON(t, ts.URL+"/v1/reload", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload 3 status = %d: %s", resp.StatusCode, body)
	}
	if srv.Epoch() <= epoch0 {
		t.Errorf("successful reload did not advance the epoch")
	}
	if got := srv.ReloadFailureStreak(); got != 0 {
		t.Errorf("streak after success = %d, want 0", got)
	}
	m = getMetrics(t, ts)
	if m.Lifecycle["reload_failures"] != 2 {
		t.Errorf("cumulative reload_failures = %d, want 2", m.Lifecycle["reload_failures"])
	}
}

// TestCountedPanicRecovery exercises the counted() wrapper's recovery
// path directly: a panicking handler becomes a JSON 500 and an error
// count, not a dead connection.
func TestCountedPanicRecovery(t *testing.T) {
	s := New(testLibrary(t), nil)
	h := s.counted("boom", func(http.ResponseWriter, *http.Request) {
		panic("injected")
	})
	rr := httptest.NewRecorder()
	h(rr, httptest.NewRequest(http.MethodGet, "/boom", nil))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rr.Code)
	}
	var e errorResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil || e.Error != "internal error" {
		t.Errorf("body = %s", rr.Body)
	}
	if got := s.errors.Get("boom"); got == nil || got.String() != "1" {
		t.Errorf("boom error count = %v, want 1", got)
	}

	// A panic after the handler already wrote must not try to write again
	// (WriteHeader on a written response panics in net/http).
	late := s.counted("late", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		panic("after write")
	})
	rr = httptest.NewRecorder()
	late(rr, httptest.NewRequest(http.MethodGet, "/late", nil))
	if rr.Code != http.StatusOK {
		t.Errorf("late panic rewrote status: %d", rr.Code)
	}
}

// blockingReloader blocks inside Load until released, letting tests hold
// the admission gate open deterministically.
type blockingReloader struct {
	lib     *goalrec.Library
	entered chan struct{}
	release chan struct{}
}

func (b *blockingReloader) Load() (*goalrec.Library, error) {
	close(b.entered)
	<-b.release
	return b.lib, nil
}

// TestAdmissionControlSheds fills the one-slot gate with a reload that
// blocks until released, proves the next expensive request is shed as
// 503 + Retry-After (and counted), and that the gate frees up afterwards.
func TestAdmissionControlSheds(t *testing.T) {
	lib := testLibrary(t)
	rl := &blockingReloader{lib: lib, entered: make(chan struct{}), release: make(chan struct{})}
	srv := New(lib, nil,
		WithReloader(rl.Load),
		WithMaxInflight(1),
		WithAdmissionWait(time.Millisecond))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, _ := postJSON(t, ts.URL+"/v1/reload", "")
		if resp.StatusCode != http.StatusOK {
			t.Errorf("blocked reload finished with %d", resp.StatusCode)
		}
	}()
	<-rl.entered // the reload now owns the only slot

	resp, body := postJSON(t, ts.URL+"/v1/recommend", `{"activity": ["potatoes"]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Errorf("shed envelope = %s", body)
	}
	// Cheap endpoints are not gated: health, readiness and metrics must
	// answer even while the gate is full.
	for _, path := range []string{"/healthz", "/readyz", "/v1/metrics"} {
		r2, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if r2.StatusCode != http.StatusOK {
			t.Errorf("%s while gate full = %d", path, r2.StatusCode)
		}
	}

	close(rl.release)
	<-done
	m := getMetrics(t, ts)
	if m.Lifecycle["sheds"] < 1 {
		t.Errorf("sheds = %d, want >= 1", m.Lifecycle["sheds"])
	}
	// With the slot free again, requests are admitted.
	resp, body = postJSON(t, ts.URL+"/v1/recommend", `{"activity": ["potatoes"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release recommend = %d: %s", resp.StatusCode, body)
	}
}

// TestAdmittedRequestsDeterministicUnderLoad is the acceptance pin for
// admission control: under concurrency pressure with a tight gate, shed
// requests get 503s but every admitted request returns a byte-identical
// body to the unloaded run.
func TestAdmittedRequestsDeterministicUnderLoad(t *testing.T) {
	lib := testLibrary(t)
	srv := New(lib, nil, WithMaxInflight(2), WithAdmissionWait(time.Millisecond))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const reqBody = `{"activity": ["potatoes", "carrots"], "strategy": "best-match", "k": 5}`
	_, baseline := postJSON(t, ts.URL+"/v1/recommend", reqBody)

	const n = 64
	var wg sync.WaitGroup
	type result struct {
		status int
		body   string
	}
	results := make([]result, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/v1/recommend", reqBody)
			results[i] = result{resp.StatusCode, string(body)}
		}(i)
	}
	wg.Wait()

	admitted := 0
	for i, r := range results {
		switch r.status {
		case http.StatusOK:
			admitted++
			if r.body != string(baseline) {
				t.Fatalf("request %d diverged under load:\n got %s\nwant %s", i, r.body, baseline)
			}
		case http.StatusServiceUnavailable:
			// shed — fine
		default:
			t.Fatalf("request %d: unexpected status %d: %s", i, r.status, r.body)
		}
	}
	if admitted == 0 {
		t.Fatal("gate admitted nothing")
	}
	t.Logf("admitted %d/%d, shed %d", admitted, n, n-admitted)
}
