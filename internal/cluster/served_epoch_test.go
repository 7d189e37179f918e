package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"goalrec"
	"goalrec/internal/server"
)

// getEpoch reads the "epoch" field of a GET reply.
func getEpoch(t *testing.T, url string) uint64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var body struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return body.Epoch
}

// TestServedEpochFollowsEngine pins that a node's HTTP surface answers at the
// epoch its engine publishes, whichever path published it: a worker engine a
// coordinator's /v1/reload committed to the next epoch, and a single node
// whose engine ingested directly rather than over HTTP. Each node's
// recommender cache is warm at the old epoch first, so a surface that kept a
// copy of the old epoch's state would answer from it.
func TestServedEpochFollowsEngine(t *testing.T) {
	t.Run("worker commit", func(t *testing.T) {
		lib1, lib2 := clusterTestLibrary(1, 40), clusterTestLibrary(2, 55)
		reload := func() (*goalrec.Library, error) { return lib2, nil }
		workers := startWorkers(t, lib1, 2, reload)
		query := `{"activity": ["a1", "a5", "a9"], "strategy": "breadth", "k": 10}`
		apis := make([]*httptest.Server, len(workers))
		for i, tw := range workers {
			apis[i] = httptest.NewServer(server.NewFromEngine(tw.engine, nil))
			defer apis[i].Close()
			postBody(t, apis[i].URL+"/v1/recommend", query)
		}
		co := startCoordinator(t, lib1, workers, CoordinatorConfig{Reload: reload})
		cluster := httptest.NewServer(NewHTTPHandler(co))
		defer cluster.Close()
		if code, body := postBody(t, cluster.URL+"/v1/reload", `{}`); code != http.StatusOK {
			t.Fatalf("reload: got %d (%s), want 200", code, body)
		}

		// Oracle: a single node swapped from lib1 to lib2, also at epoch 2.
		oracle := goalrec.NewEngineFromLibrary(lib1)
		oracle.Swap(lib2)
		single := httptest.NewServer(server.NewFromEngine(oracle, nil))
		defer single.Close()
		_, want := postBody(t, single.URL+"/v1/recommend", query)
		for i, api := range apis {
			if e := workers[i].engine.Epoch(); e != 2 {
				t.Fatalf("worker %d engine at epoch %d, want 2", i, e)
			}
			if _, got := postBody(t, api.URL+"/v1/recommend", query); !bytes.Equal(got, want) {
				t.Errorf("worker %d /v1/recommend after commit:\n got %s\nwant %s", i, got, want)
			}
			for _, path := range []string{"/v1/stats", "/v1/metrics"} {
				if e := getEpoch(t, api.URL+path); e != 2 {
					t.Errorf("worker %d %s epoch after commit: got %d, want 2", i, path, e)
				}
			}
		}
	})

	t.Run("direct ingest", func(t *testing.T) {
		engine := goalrec.NewEngineFromLibrary(clusterTestLibrary(3, 30))
		api := httptest.NewServer(server.NewFromEngine(engine, nil))
		defer api.Close()
		query := `{"activity": ["a1"], "strategy": "breadth", "k": 100}`
		postBody(t, api.URL+"/v1/recommend", query)
		if _, err := engine.AddImplementations([]goalrec.Implementation{
			{Goal: "g-new", Actions: []string{"a1", "brand-new"}},
		}); err != nil {
			t.Fatal(err)
		}
		_, body := postBody(t, api.URL+"/v1/recommend", query)
		var got struct {
			Epoch           uint64 `json:"epoch"`
			Recommendations []struct {
				Action string `json:"action"`
			} `json:"recommendations"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		found := false
		for _, r := range got.Recommendations {
			found = found || r.Action == "brand-new"
		}
		if got.Epoch != 2 || !found {
			t.Fatalf("after a direct ingest: epoch %d, ingested action recommended %v; want epoch 2, true (%s)",
				got.Epoch, found, body)
		}
	})
}
