package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"goalrec"
	"goalrec/internal/server"
)

// clusterMetrics decodes the part of /v1/metrics the lifecycle rows read.
func clusterMetrics(t *testing.T, url string) (m struct {
	Requests  map[string]int64 `json:"requests"`
	Errors    map[string]int64 `json:"errors"`
	Lifecycle map[string]int64 `json:"lifecycle"`
}) {
	t.Helper()
	resp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCoordinatorHonoursLifecycle runs the single-node lifecycle cases
// (internal/server: TestRequestTimeoutExpiresAs504, TestClientDisconnectAborts,
// TestCountedPanicRecovery, TestAdmissionControlSheds, TestReadyzDraining)
// through a real coordinator over in-process workers: the protections are the
// front end's, so they hold whatever the backend.
func TestCoordinatorHonoursLifecycle(t *testing.T) {
	const query = `{"activity": ["a1", "a5"], "strategy": "breadth", "k": 5}`
	lib := clusterTestLibrary(21, 30)
	workers := startWorkers(t, lib, 2, nil)

	t.Run("request timeout is a 504", func(t *testing.T) {
		co := startCoordinator(t, lib, workers, CoordinatorConfig{})
		ts := httptest.NewServer(server.NewFromBackend(co, nil, server.WithRequestTimeout(time.Nanosecond)))
		defer ts.Close()
		for _, tc := range []struct{ path, body string }{
			{"/v1/recommend", query},
			{"/v1/recommend/batch", `{"activities": [["a1"], ["a5"]], "strategy": "focus-cmp"}`},
		} {
			code, body := postBody(t, ts.URL+tc.path, tc.body)
			if code != http.StatusGatewayTimeout || strings.TrimSpace(string(body)) != `{"error":"deadline exceeded"}` {
				t.Errorf("%s past its deadline: got %d %s, want 504 deadline exceeded", tc.path, code, body)
			}
		}
		if m := clusterMetrics(t, ts.URL); m.Lifecycle["deadline_exceeded"] != 2 || m.Errors["recommend"] != 1 {
			t.Errorf("lifecycle %v errors %v, want 2 deadline_exceeded and 1 recommend error", m.Lifecycle, m.Errors)
		}
	})

	t.Run("client disconnect is a 499", func(t *testing.T) {
		co := startCoordinator(t, lib, workers, CoordinatorConfig{})
		h := NewHTTPHandler(co)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/recommend", strings.NewReader(query)).WithContext(ctx))
		if rr.Code != 499 {
			t.Fatalf("canceled request: got %d %s, want 499", rr.Code, rr.Body)
		}
		ts := httptest.NewServer(h)
		defer ts.Close()
		if m := clusterMetrics(t, ts.URL); m.Lifecycle["canceled"] != 1 {
			t.Errorf("lifecycle %v, want 1 canceled", m.Lifecycle)
		}
		if got := co.Metrics().Snapshot(0).Scatters; got != 0 {
			t.Errorf("a request that was already gone was scattered %d times", got)
		}
	})

	t.Run("panic is a JSON 500 and serving continues", func(t *testing.T) {
		co := startCoordinator(t, lib, workers, CoordinatorConfig{
			Reload: func() (*goalrec.Library, error) { panic("reload bug") },
		})
		ts := httptest.NewServer(NewHTTPHandler(co))
		defer ts.Close()
		code, body := postBody(t, ts.URL+"/v1/reload", "")
		if code != http.StatusInternalServerError || !strings.Contains(string(body), `"internal error"`) {
			t.Fatalf("panicking reload: got %d %s, want a JSON 500", code, body)
		}
		if code, body := postBody(t, ts.URL+"/v1/recommend", query); code != http.StatusOK {
			t.Fatalf("after the panic: got %d %s, want 200", code, body)
		}
		if m := clusterMetrics(t, ts.URL); m.Errors["reload"] != 1 {
			t.Errorf("errors %v, want the panic counted against reload", m.Errors)
		}
	})

	t.Run("over the inflight limit is a 503 with Retry-After", func(t *testing.T) {
		entered, release := make(chan struct{}), make(chan struct{})
		workers := startWorkers(t, lib, 2, func() (*goalrec.Library, error) { return lib, nil })
		co := startCoordinator(t, lib, workers, CoordinatorConfig{
			Reload: func() (*goalrec.Library, error) {
				close(entered)
				<-release
				return lib, nil
			},
		})
		ts := httptest.NewServer(server.NewFromBackend(co, nil,
			server.WithMaxInflight(1), server.WithAdmissionWait(time.Millisecond)))
		defer ts.Close()
		done := make(chan int)
		go func() {
			resp, err := http.Post(ts.URL+"/v1/reload", "application/json", nil)
			if err != nil {
				done <- 0
				return
			}
			resp.Body.Close()
			done <- resp.StatusCode
		}()
		<-entered // the reload now owns the only slot

		resp, err := http.Post(ts.URL+"/v1/recommend", "application/json", strings.NewReader(query))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
			t.Errorf("over the limit: got %d (Retry-After %q) %s, want 503 with Retry-After",
				resp.StatusCode, resp.Header.Get("Retry-After"), body)
		}
		close(release)
		if code := <-done; code != http.StatusOK {
			t.Errorf("the blocked reload finished with %d", code)
		}
		if m := clusterMetrics(t, ts.URL); m.Lifecycle["sheds"] != 1 {
			t.Errorf("lifecycle %v, want 1 shed", m.Lifecycle)
		}
		if code, body := postBody(t, ts.URL+"/v1/recommend", query); code != http.StatusOK {
			t.Errorf("with the slot free again: got %d %s", code, body)
		}
	})

	t.Run("readyz while draining is a 503", func(t *testing.T) {
		co := startCoordinator(t, lib, workers, CoordinatorConfig{})
		h := NewHTTPHandler(co)
		ts := httptest.NewServer(h)
		defer ts.Close()
		ready := func() (int, map[string]any) {
			t.Helper()
			resp, err := http.Get(ts.URL + "/readyz")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var m map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
				t.Fatal(err)
			}
			return resp.StatusCode, m
		}
		postBody(t, ts.URL+"/v1/recommend", query) // registers both workers
		if code, m := ready(); code != http.StatusOK || m["status"] != "ok" || m["workers"] != 2.0 || m["connected"] != 2.0 || m["reload_failure_streak"] != 0.0 {
			t.Fatalf("ready coordinator: %d %v", code, m)
		}
		h.SetDraining(true)
		if code, m := ready(); code != http.StatusServiceUnavailable || m["status"] != "draining" {
			t.Fatalf("draining coordinator: %d %v", code, m)
		}
		if code, body := postBody(t, ts.URL+"/v1/recommend", query); code != http.StatusOK {
			t.Fatalf("recommend while draining: %d %s", code, body)
		}
	})
}

// TestClusterBatchOneEpochAcrossReload: a batch is answered from one
// snapshot, so a two-phase swap that commits in the middle of it moves no
// item to the next epoch. The reload is issued once the batch is seen
// scattering; an attempt that was over before the swap was, or one a shard
// refused mid-commit (epoch skew fails the batch as a whole), is retried.
func TestClusterBatchOneEpochAcrossReload(t *testing.T) {
	lib := clusterTestLibrary(22, 40)
	same := func() (*goalrec.Library, error) { return lib, nil }
	workers := startWorkers(t, lib, 2, same)
	co := startCoordinator(t, lib, workers, CoordinatorConfig{Reload: same})

	activities := make([][]string, 256)
	for i := range activities {
		activities[i] = []string{"a1", "a5", "a9"}
	}
	for attempt := 0; attempt < 100; attempt++ {
		before := co.Epoch()
		scatters := co.Metrics().Snapshot(0).Scatters
		type outcome struct {
			batch *server.BatchResult
			err   error
		}
		done := make(chan outcome, 1)
		go func() {
			batch, err := co.RecommendBatch(context.Background(), "breadth", "", activities, 5)
			done <- outcome{batch, err}
		}()
		for co.Metrics().Snapshot(0).Scatters < scatters+8 {
			time.Sleep(50 * time.Microsecond)
		}
		if _, _, err := co.Reload(context.Background()); err != nil {
			t.Fatalf("reload under the batch: %v", err)
		}
		committed := co.Metrics().Snapshot(0).Scatters
		out := <-done
		if out.err != nil || out.batch.Epoch != before || co.Metrics().Snapshot(0).Scatters == committed {
			continue // refused mid-commit, or the batch was over before the swap was
		}
		for i, item := range out.batch.Items {
			if item.Epoch != out.batch.Epoch {
				t.Fatalf("item %d answered from epoch %d in a batch of epoch %d", i, item.Epoch, out.batch.Epoch)
			}
		}
		if co.Epoch() <= before {
			t.Fatalf("the swap did not commit: epoch still %d", co.Epoch())
		}
		return
	}
	t.Fatal("no batch straddled a swap in 100 attempts")
}

// TestClusterSwapAbortsOnUncuttableShard: a worker cuts its next partition at
// prepare, so a library that no longer covers a worker's range fails that
// prepare and the swap is aborted on every node — rather than committed on a
// worker that then cannot serve its range.
func TestClusterSwapAbortsOnUncuttableShard(t *testing.T) {
	lib := clusterTestLibrary(5, 45)
	shrunk := func() (*goalrec.Library, error) { return clusterTestLibrary(5, 20), nil }
	workers := startWorkers(t, lib, 3, shrunk) // [0, 15), [15, 30), [30, end)
	co := startCoordinator(t, lib, workers, CoordinatorConfig{Reload: shrunk})

	if _, _, err := co.Reload(context.Background()); err == nil || !strings.Contains(err.Error(), "partitioning") {
		t.Fatalf("reload onto a library too short for the ranges: %v, want a partitioning error", err)
	}
	if got := co.Epoch(); got != 1 {
		t.Fatalf("coordinator epoch after the aborted swap: %d, want 1", got)
	}
	for i, tw := range workers {
		if got := tw.engine.Epoch(); got != 1 {
			t.Fatalf("worker %d epoch after the aborted swap: %d, want 1", i, got)
		}
		tw.worker.stagedMu.Lock()
		staged := tw.worker.staged != nil || tw.worker.stagedShard != nil
		tw.worker.stagedMu.Unlock()
		if staged {
			t.Fatalf("worker %d still holds a staged swap", i)
		}
	}
	if swaps := co.Metrics().Snapshot(0).Swaps; swaps.Aborted != 1 || swaps.Committed != 0 {
		t.Fatalf("swaps after the aborted reload: %+v, want one aborted, none committed", swaps)
	}
	single := httptest.NewServer(server.New(lib, nil))
	defer single.Close()
	cluster := httptest.NewServer(NewHTTPHandler(co))
	defer cluster.Close()
	assertAnswersLike(t, single.URL, cluster.URL)
}
