package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestRecommendBatchEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/recommend/batch",
		`{"activities": [["potatoes", "carrots"], [], ["potatoes", "dragonfruit"]],
		  "strategy": "breadth", "k": 3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var got batchRecommendResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Strategy != "breadth" {
		t.Errorf("strategy = %q", got.Strategy)
	}
	if len(got.Results) != 3 {
		t.Fatalf("results = %d, want 3 (one per activity, in order)", len(got.Results))
	}

	// Item 0 must match the single-activity endpoint bit for bit.
	r2, b2 := postJSON(t, ts.URL+"/v1/recommend",
		`{"activity": ["potatoes", "carrots"], "strategy": "breadth", "k": 3}`)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("single recommend = %d: %s", r2.StatusCode, b2)
	}
	var single recommendResponse
	if err := json.Unmarshal(b2, &single); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Results[0].Recommendations) != fmt.Sprint(single.Recommendations) {
		t.Errorf("batch item diverges from single endpoint:\n got %v\nwant %v",
			got.Results[0].Recommendations, single.Recommendations)
	}
	if got.Epoch != single.Epoch {
		t.Errorf("batch epoch = %d, single = %d", got.Epoch, single.Epoch)
	}

	// Item 1 is invalid: a per-item error, not a failed request.
	if got.Results[1].Error != "activity must not be empty" {
		t.Errorf("empty-activity error = %q", got.Results[1].Error)
	}
	if len(got.Results[1].Recommendations) != 0 {
		t.Errorf("invalid item scored anyway: %v", got.Results[1].Recommendations)
	}

	// Item 2 scores on its known actions and reports the unknown one.
	if len(got.Results[2].Recommendations) == 0 {
		t.Error("item with unknown action produced nothing")
	}
	if len(got.Results[2].UnknownActions) != 1 || got.Results[2].UnknownActions[0] != "dragonfruit" {
		t.Errorf("unknown_actions = %v, want [dragonfruit]", got.Results[2].UnknownActions)
	}
}

func TestRecommendBatchValidation(t *testing.T) {
	ts := newTestServer(t)
	overLimit := `{"activities": [` + strings.Repeat(`["potatoes"],`, maxBatchActivities) + `["potatoes"]]}`
	cases := []struct {
		name string
		body string
	}{
		{"no activities", `{"activities": []}`},
		{"too many activities", overLimit},
		{"bad strategy", `{"activities": [["potatoes"]], "strategy": "magic"}`},
		{"bad k", `{"activities": [["potatoes"]], "k": -2}`},
		{"unknown field", `{"activities": [["potatoes"]], "bogus": 1}`},
		{"malformed", `{`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/recommend/batch", tc.body)
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

// TestRecommendBatchDeadline pins that an expired request deadline fails
// the whole batch as 504: partial batches are never returned as 200s.
func TestRecommendBatchDeadline(t *testing.T) {
	ts := httptest.NewServer(New(testLibrary(t), nil, WithRequestTimeout(time.Nanosecond)))
	defer ts.Close()
	resp, body := postJSON(t, ts.URL+"/v1/recommend/batch",
		`{"activities": [["potatoes"], ["carrots"]]}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", resp.StatusCode, body)
	}
	m := getMetrics(t, ts)
	if m.Lifecycle["deadline_exceeded"] != 1 {
		t.Errorf("deadline_exceeded = %d, want 1", m.Lifecycle["deadline_exceeded"])
	}
	if m.Errors["recommend_batch"] != 1 {
		t.Errorf("recommend_batch errors = %d, want 1", m.Errors["recommend_batch"])
	}
}

// TestRecommendBatchClientDisconnect pins the 499 path for batches.
func TestRecommendBatchClientDisconnect(t *testing.T) {
	s := New(testLibrary(t), nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/recommend/batch",
		strings.NewReader(`{"activities": [["potatoes"]]}`)).WithContext(ctx)
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, req)
	if rr.Code != statusClientClosedRequest {
		t.Fatalf("status = %d, want %d: %s", rr.Code, statusClientClosedRequest, rr.Body)
	}
}

// TestRecommendBatchGated pins that a batch occupies one admission slot:
// with the gate held, the whole request is shed as a 503.
func TestRecommendBatchGated(t *testing.T) {
	lib := testLibrary(t)
	rl := &blockingReloader{lib: lib, entered: make(chan struct{}), release: make(chan struct{})}
	srv := New(lib, nil,
		WithReloader(rl.Load),
		WithMaxInflight(1))
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
	<-rl.entered

	resp, body := postJSON(t, ts.URL+"/v1/recommend/batch", `{"activities": [["potatoes"]]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed batch missing Retry-After")
	}

	close(rl.release)
	<-done
	resp, body = postJSON(t, ts.URL+"/v1/recommend/batch", `{"activities": [["potatoes"]]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release batch = %d: %s", resp.StatusCode, body)
	}
}
