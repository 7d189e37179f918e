// The front end over a Backend that is not the local engine: what each typed
// error becomes on the wire, what reaches the error log, and what the backend
// adds to the probes. The real coordinator's rows live in internal/cluster.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"goalrec"
	"goalrec/internal/faultinject"
)

// fakeBackend answers every query with a canned result or error.
type fakeBackend struct {
	lib    *goalrec.Library
	err    error
	panics bool
	status Status
}

func (f *fakeBackend) Snapshot() *goalrec.Library { return f.lib }

func (f *fakeBackend) Recommend(context.Context, string, string, []string, int) (*Result, error) {
	if f.panics {
		panic("backend bug")
	}
	if f.err != nil {
		return nil, f.err
	}
	return &Result{Epoch: f.lib.Epoch(), Strategy: "breadth", Degraded: true,
		Recommendations: []goalrec.Recommendation{{Action: "nutmeg", Score: 2}}}, nil
}

func (f *fakeBackend) RecommendBatch(ctx context.Context, s, m string, activities [][]string, k int) (*BatchResult, error) {
	res := &BatchResult{Epoch: f.lib.Epoch(), Strategy: "breadth", Degraded: true}
	for range activities {
		item, err := f.Recommend(ctx, s, m, nil, k)
		if err != nil {
			return nil, err
		}
		res.Items = append(res.Items, *item)
	}
	return res, nil
}

func (f *fakeBackend) Reload(context.Context) (uint64, int, error) { return 0, 0, ErrNoReloader }

func (f *fakeBackend) Status() Status { return f.status }

func TestBackendErrorsOnTheWire(t *testing.T) {
	const query = `{"activity": ["potatoes"]}`
	for _, tc := range []struct {
		name   string
		err    error
		status int
		body   string
		logged bool // a 5xx is named in the error log, nothing else is
	}{
		{"client error", &goalrec.QueryError{Err: errors.New("goalrec: unknown strategy \"x\"")}, 400, `unknown strategy`, false},
		{"shard failure", &BackendError{Err: errors.New("cluster: 1 of 2 shards failed")}, 502, `shards failed`, true},
		{"deadline inside a shard failure", &BackendError{Err: context.DeadlineExceeded}, 504, `deadline exceeded`, true},
		{"disconnect", context.Canceled, statusClientClosedRequest, `client closed request`, false},
		{"untyped", errors.New("something else"), 500, `something else`, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var errLog bytes.Buffer
			fb := &fakeBackend{lib: testLibrary(t), err: tc.err, status: Status{Detail: "fake epoch 7"}}
			s := NewFromBackend(fb, nil)
			s.SetErrorLog(log.New(&errLog, "", 0))
			for _, path := range []string{"/v1/recommend", "/v1/recommend/batch"} {
				errLog.Reset()
				body := query
				if strings.HasSuffix(path, "batch") {
					body = `{"activities": [["potatoes"]]}`
				}
				rr := httptest.NewRecorder()
				s.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
				if rr.Code != tc.status || !strings.Contains(rr.Body.String(), tc.body) {
					t.Errorf("%s: got %d %s, want %d with %q", path, rr.Code, rr.Body, tc.status, tc.body)
				}
				line := errLog.String()
				if tc.logged != strings.Contains(line, "answering") {
					t.Errorf("%s: error log %q, want a line: %v", path, line, tc.logged)
				}
				if tc.logged && (!strings.Contains(line, tc.body) || !strings.Contains(line, "fake epoch 7")) {
					t.Errorf("%s: error log %q lacks the cause or the backend's epochs", path, line)
				}
			}
		})
	}
}

func TestBackendDegradedAndProbes(t *testing.T) {
	fb := &fakeBackend{lib: testLibrary(t), status: Status{
		Degraded: true,
		Ready:    map[string]any{"workers": 3, "connected": 2},
		Metrics:  map[string]any{"cluster": map[string]int{"scatters": 9}},
	}}
	ts := httptest.NewServer(NewFromBackend(fb, nil))
	defer ts.Close()

	_, body := postJSON(t, ts.URL+"/v1/recommend", `{"activity": ["potatoes"]}`)
	if !strings.Contains(string(body), `"degraded":true`) {
		t.Errorf("recommend body %s lacks the degraded flag", body)
	}
	_, body = postJSON(t, ts.URL+"/v1/recommend/batch", `{"activities": [["potatoes"], []]}`)
	if !strings.Contains(string(body), `"degraded":true`) || !strings.Contains(string(body), "activity must not be empty") {
		t.Errorf("batch body %s lacks the degraded flag or the per-item error", body)
	}

	get := func(path string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("%s is not JSON: %v\n%s", path, err, raw)
		}
		return resp.StatusCode, m
	}
	code, ready := get("/readyz")
	if code != http.StatusOK || ready["status"] != "degraded" || ready["workers"] != 3.0 || ready["connected"] != 2.0 {
		t.Errorf("readyz = %d %v, want 200 degraded with the backend's keys", code, ready)
	}
	if _, ok := ready["reload_failure_streak"]; !ok {
		t.Errorf("readyz %v lacks reload_failure_streak", ready)
	}
	_, metrics := get("/v1/metrics")
	for _, key := range []string{"epoch", "requests", "errors", "lifecycle", "users", "storage", "library", "reload_failure_streak", "cluster"} {
		if _, ok := metrics[key]; !ok {
			t.Errorf("metrics lack %q: %v", key, metrics)
		}
	}
	if _, ok := metrics["pruning"]; ok {
		t.Errorf("metrics carry the local engine's pruning block over another backend: %v", metrics)
	}

	// What needs the local engine is not routed over another backend; reload
	// without a source is a 501 there as on a node.
	if resp, _ := postJSON(t, ts.URL+"/v1/spaces", `{"activity": ["potatoes"]}`); resp.StatusCode != http.StatusNotFound {
		t.Errorf("/v1/spaces over a non-local backend = %d, want 404", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/reload", ""); resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("/v1/reload without a reloader = %d, want 501", resp.StatusCode)
	}
}

// TestBackendPanicIsA500 drives a panic through the real routing: it becomes
// a JSON 500, lands in the error log although request logging is off, and the
// server keeps answering.
func TestBackendPanicIsA500(t *testing.T) {
	var errLog bytes.Buffer
	fb := &fakeBackend{lib: testLibrary(t), panics: true}
	s := NewFromBackend(fb, nil)
	s.SetErrorLog(log.New(&errLog, "", 0))
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/recommend", `{"activity": ["potatoes"]}`)
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), `"internal error"`) {
		t.Fatalf("panicking backend: got %d %s, want a JSON 500", resp.StatusCode, body)
	}
	if !strings.Contains(errLog.String(), "panic in recommend: backend bug") {
		t.Errorf("error log %q does not name the panic", errLog.String())
	}
	fb.panics = false
	if resp, body := postJSON(t, ts.URL+"/v1/recommend", `{"activity": ["potatoes"]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("after the panic: got %d %s, want 200", resp.StatusCode, body)
	}
	if m := getMetrics(t, ts); m.Errors["recommend"] != 1 || m.Requests["recommend"] != 2 {
		t.Errorf("requests/errors = %v/%v, want 2/1", m.Requests, m.Errors)
	}
}

// TestSingleNode5xxIsNamed: the error log covers a node's own 5xx too, with
// the request log off — the -quiet configuration.
func TestSingleNode5xxIsNamed(t *testing.T) {
	var errLog bytes.Buffer
	rl := &faultinject.Reloader{FailFirst: 1, Lib: testLibrary(t)}
	s := New(testLibrary(t), nil, WithReloader(rl.Load))
	s.SetErrorLog(log.New(&errLog, "", 0))
	for _, want := range []int{http.StatusInternalServerError, http.StatusOK} {
		rr := httptest.NewRecorder()
		s.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/reload", nil))
		if rr.Code != want {
			t.Fatalf("reload = %d %s, want %d", rr.Code, rr.Body, want)
		}
	}
	lines := strings.Split(strings.TrimSpace(errLog.String()), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], "answering 500: reload failed") || !strings.Contains(lines[0], "(epoch 1)") {
		t.Errorf("error log = %q, want one line naming the failed reload and epoch 1", errLog.String())
	}
}
