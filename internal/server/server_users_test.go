package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"goalrec"
	"goalrec/internal/faultinject"
)

// newUserTestServer builds a server with an attached user store over the
// standard test library, returning both.
func newUserTestServer(t *testing.T) (*httptest.Server, *goalrec.UserStore) {
	t.Helper()
	engine := goalrec.NewEngineFromLibrary(testLibrary(t))
	us := goalrec.NewUserStore(engine, goalrec.UserStoreOptions{})
	ts := httptest.NewServer(NewFromEngine(engine, nil, WithUserStore(us)))
	t.Cleanup(ts.Close)
	return ts, us
}

func doReq(t *testing.T, method, url, body string) (*http.Response, []byte) {
	t.Helper()
	var rd *strings.Reader
	if body != "" {
		rd = strings.NewReader(body)
	} else {
		rd = strings.NewReader("")
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf [1 << 16]byte
	n, _ := resp.Body.Read(buf[:])
	return resp, buf[:n]
}

// TestUserLifecycle appends a history in two batches, checks dedup counts,
// and asserts the stored-history reply equals POSTing the same history to
// /v1/recommend, for every strategy and a non-default Best Match metric.
func TestUserLifecycle(t *testing.T) {
	ts, _ := newUserTestServer(t)

	resp, body := doReq(t, "POST", ts.URL+"/v1/users/alice/actions",
		`{"actions": ["potatoes", "carrots", "potatoes"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append status = %d (%s)", resp.StatusCode, body)
	}
	var app userAppendResponse
	if err := json.Unmarshal(body, &app); err != nil {
		t.Fatal(err)
	}
	if app.Added != 2 || app.Total != 2 {
		t.Fatalf("first append = %+v", app)
	}
	// Second batch: one duplicate, one new, one unknown-to-the-library name.
	resp, body = doReq(t, "POST", ts.URL+"/v1/users/alice/actions",
		`{"actions": ["carrots", "nutmeg", "no-such-action"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append status = %d (%s)", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &app); err != nil {
		t.Fatal(err)
	}
	if app.Added != 2 || app.Total != 4 {
		t.Fatalf("second append = %+v", app)
	}

	for _, sel := range []struct{ strategy, metric string }{
		{"focus-cmp", ""}, {"focus-cl", ""}, {"breadth", ""}, {"best-match", ""},
		{"best-match", "jaccard"},
	} {
		name := sel.strategy + "/" + sel.metric
		resp, body = doReq(t, "GET", ts.URL+"/v1/users/alice/recommend?strategy="+sel.strategy+"&metric="+sel.metric+"&k=5", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: recommend status = %d (%s)", name, resp.StatusCode, body)
		}
		var got recommendResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.UnknownActions, []string{"no-such-action"}) {
			t.Fatalf("%s: unknown = %v", name, got.UnknownActions)
		}
		// Oracle: the same history POSTed as a request activity; the whole
		// reply — strategy name, epoch, ranking, unknown actions — must match.
		_, wantBody := postJSON(t, ts.URL+"/v1/recommend",
			`{"activity": ["potatoes", "carrots", "nutmeg", "no-such-action"], "strategy": "`+sel.strategy+
				`", "metric": "`+sel.metric+`", "k": 5}`)
		var want recommendResponse
		if err := json.Unmarshal(wantBody, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: stored-history reply diverged from /v1/recommend:\ngot  %+v\nwant %+v", name, got, want)
		}
	}

	// Delete, then both query and re-delete answer 404.
	if resp, body = doReq(t, "DELETE", ts.URL+"/v1/users/alice", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status = %d (%s)", resp.StatusCode, body)
	}
	if resp, _ = doReq(t, "GET", ts.URL+"/v1/users/alice/recommend", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("recommend after delete = %d", resp.StatusCode)
	}
	if resp, _ = doReq(t, "DELETE", ts.URL+"/v1/users/alice", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("second delete = %d", resp.StatusCode)
	}
}

// TestUserEndpointsValidation covers the error paths: unknown user, bad k,
// empty actions, capacity exhaustion, and the 501 without a store.
func TestUserEndpointsValidation(t *testing.T) {
	ts, _ := newUserTestServer(t)

	if resp, _ := doReq(t, "GET", ts.URL+"/v1/users/ghost/recommend", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown user = %d", resp.StatusCode)
	}
	if resp, _ := doReq(t, "POST", ts.URL+"/v1/users/u/actions", `{"actions": []}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty actions = %d", resp.StatusCode)
	}
	doReq(t, "POST", ts.URL+"/v1/users/u/actions", `{"actions": ["potatoes"]}`)
	if resp, _ := doReq(t, "GET", ts.URL+"/v1/users/u/recommend?k=0", ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("k=0 = %d", resp.StatusCode)
	}
	if resp, _ := doReq(t, "GET", ts.URL+"/v1/users/u/recommend?strategy=nope", ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad strategy = %d", resp.StatusCode)
	}

	// Capacity: a store with room for one user rejects the second.
	engine := goalrec.NewEngineFromLibrary(testLibrary(t))
	small := goalrec.NewUserStore(engine, goalrec.UserStoreOptions{MaxUsers: 1})
	ts2 := httptest.NewServer(NewFromEngine(engine, nil, WithUserStore(small)))
	defer ts2.Close()
	doReq(t, "POST", ts2.URL+"/v1/users/a/actions", `{"actions": ["potatoes"]}`)
	if resp, _ := doReq(t, "POST", ts2.URL+"/v1/users/b/actions", `{"actions": ["potatoes"]}`); resp.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("over-capacity append = %d", resp.StatusCode)
	}

	// Without WithUserStore the endpoints answer 501.
	bare := newTestServer(t)
	if resp, _ := doReq(t, "POST", bare.URL+"/v1/users/u/actions", `{"actions": ["x"]}`); resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("append without store = %d", resp.StatusCode)
	}
	if resp, _ := doReq(t, "GET", bare.URL+"/v1/users/u/recommend", ""); resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("recommend without store = %d", resp.StatusCode)
	}
}

// TestUserMetrics asserts the /v1/metrics users block reflects store
// activity: one cold build, then a hit.
func TestUserMetrics(t *testing.T) {
	ts, us := newUserTestServer(t)
	doReq(t, "POST", ts.URL+"/v1/users/u/actions", `{"actions": ["potatoes", "carrots"]}`)
	doReq(t, "GET", ts.URL+"/v1/users/u/recommend", "")
	doReq(t, "GET", ts.URL+"/v1/users/u/recommend", "")
	st := us.Stats()
	if st.Cold != 1 || st.Hits != 1 || st.Users != 1 || st.Appends != 2 {
		t.Fatalf("stats = %+v", st)
	}
	resp, body := doReq(t, "GET", ts.URL+"/v1/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	var m struct {
		Users struct {
			Enabled  bool `json:"enabled"`
			Counters struct {
				Users int64  `json:"users"`
				Cold  uint64 `json:"cold"`
				Hits  uint64 `json:"hits"`
			} `json:"counters"`
		} `json:"users"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("metrics decode: %v (%s)", err, body)
	}
	if !m.Users.Enabled || m.Users.Counters.Users != 1 || m.Users.Counters.Cold != 1 || m.Users.Counters.Hits != 1 {
		t.Fatalf("metrics users block = %+v", m.Users)
	}
}

// TestUserViewAcrossIngest appends, ingests more implementations (same
// lineage, epoch grows), and checks the advanced view still matches the
// from-scratch oracle — including a previously unresolvable name that the
// new epoch can now resolve.
func TestUserViewAcrossIngest(t *testing.T) {
	ts, us := newUserTestServer(t)
	doReq(t, "POST", ts.URL+"/v1/users/u/actions", `{"actions": ["potatoes", "beets"]}`)
	resp, body := doReq(t, "GET", ts.URL+"/v1/users/u/recommend?strategy=breadth&k=5", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recommend = %d (%s)", resp.StatusCode, body)
	}
	var before recommendResponse
	if err := json.Unmarshal(body, &before); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before.UnknownActions, []string{"beets"}) {
		t.Fatalf("unknown before ingest = %v", before.UnknownActions)
	}

	// Ingest a goal that teaches the library "beets"; the same-lineage epoch
	// extension must advance the view and resolve the parked name.
	resp, body = postJSON(t, ts.URL+"/v1/implementations",
		`{"implementations": [{"goal": "borscht", "actions": ["beets", "potatoes", "dill"]}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d (%s)", resp.StatusCode, body)
	}

	resp, body = doReq(t, "GET", ts.URL+"/v1/users/u/recommend?strategy=breadth&k=5", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recommend after ingest = %d (%s)", resp.StatusCode, body)
	}
	var after recommendResponse
	if err := json.Unmarshal(body, &after); err != nil {
		t.Fatal(err)
	}
	if len(after.UnknownActions) != 0 {
		t.Fatalf("unknown after ingest = %v", after.UnknownActions)
	}
	_, wantBody := postJSON(t, ts.URL+"/v1/recommend",
		`{"activity": ["potatoes", "beets"], "strategy": "breadth", "k": 5}`)
	var want recommendResponse
	if err := json.Unmarshal(wantBody, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after.Recommendations, want.Recommendations) {
		t.Fatalf("post-ingest ranking diverged:\ngot  %v\nwant %v", after.Recommendations, want.Recommendations)
	}
	if st := us.Stats(); st.Advances != 1 {
		t.Fatalf("advances = %d, want 1 (stats %+v)", st.Advances, st)
	}
}

// TestUserRecommendDuringReload races stored-history recommendations against
// /v1/reload swapping between two libraries via a faultinject script that
// also fails intermittently. Every 200 must carry a ranking bit-identical to
// one of the two libraries' from-scratch oracles — a blend of stale view
// counters and new postings matches neither. Run under -race.
func TestUserRecommendDuringReload(t *testing.T) {
	libA := testLibrary(t)
	bb := goalrec.NewBuilder()
	for _, impl := range [][]string{
		{"borscht", "beets", "potatoes", "onions"},
		{"borscht", "beets", "carrots", "dill"},
		{"stew", "potatoes", "carrots", "onions"},
		{"pickles", "cucumbers", "dill", "salt"},
	} {
		if err := bb.AddImplementation(impl[0], impl[1:]...); err != nil {
			t.Fatal(err)
		}
	}
	libB := bb.Build()

	history := []string{"potatoes", "carrots"}
	// Per-library, per-strategy oracles computed on isolated engines.
	strategies := []goalrec.Strategy{goalrec.FocusCompleteness, goalrec.FocusCloseness, goalrec.Breadth, goalrec.BestMatch}
	oracleFor := func(lib *goalrec.Library) map[goalrec.Strategy][]goalrec.Recommendation {
		out := make(map[goalrec.Strategy][]goalrec.Recommendation)
		e := goalrec.NewEngineFromLibrary(lib)
		for _, s := range strategies {
			rec, err := e.Recommender(s)
			if err != nil {
				t.Fatal(err)
			}
			out[s] = rec.Recommend(history, 10)
		}
		return out
	}
	oa, ob := oracleFor(libA), oracleFor(libB)

	// Reload script: every third call fails; successes alternate B, A, B, ...
	rl := &faultinject.Reloader{Build: func(call int) (*goalrec.Library, error) {
		if call%3 == 0 {
			return nil, faultinject.ErrInjected
		}
		if call%2 == 1 {
			return libB, nil
		}
		return libA, nil
	}}
	engine := goalrec.NewEngineFromLibrary(libA)
	us := goalrec.NewUserStore(engine, goalrec.UserStoreOptions{})
	srv := NewFromEngine(engine, nil, WithUserStore(us), WithReloader(rl.Load))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if _, err := us.Append("u", history); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var reloadWG, wg sync.WaitGroup
	reloadWG.Add(1)
	go func() {
		defer reloadWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, body := doReq(t, "POST", ts.URL+"/v1/reload", "")
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusInternalServerError {
				t.Errorf("reload status = %d: %s", resp.StatusCode, body)
				return
			}
		}
	}()
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				s := strategies[(w+i)%len(strategies)]
				resp, body := doReq(t, "GET", ts.URL+"/v1/users/u/recommend?strategy="+string(s)+"&k=10", "")
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s: recommend status = %d: %s", s, resp.StatusCode, body)
					return
				}
				var got recommendResponse
				if err := json.Unmarshal(body, &got); err != nil {
					t.Errorf("%s: decode: %v", s, err)
					return
				}
				if !sameRecs(got.Recommendations, oa[s]) && !sameRecs(got.Recommendations, ob[s]) {
					t.Errorf("%s: ranking matches neither library's oracle: %v", s, got.Recommendations)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	reloadWG.Wait()
}

// sameRecs compares a decoded wire ranking against an in-process oracle,
// treating nil and empty as equal (JSON decoding yields nil for an empty
// list).
func sameRecs(a []recommendationPayload, b []goalrec.Recommendation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Action != b[i].Action || a[i].Score != b[i].Score {
			return false
		}
	}
	return true
}
