package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"goalrec"
	"goalrec/internal/comms"
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
			server.WithMaxInflight(1)))
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
// snapshot, and a two-phase swap issued while the batch is scattering
// commits only once the batch is done, so no item moves to the next epoch
// and no shard refuses the batch mid-commit.
func TestClusterBatchOneEpochAcrossReload(t *testing.T) {
	lib := clusterTestLibrary(22, 40)
	same := func() (*goalrec.Library, error) { return lib, nil }
	workers := startWorkers(t, lib, 2, same)
	co := startCoordinator(t, lib, workers, CoordinatorConfig{Reload: same})

	activities := make([][]string, 256)
	for i := range activities {
		activities[i] = []string{"a1", "a5", "a9"}
	}
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
	epoch, _, err := co.Reload(context.Background())
	if err != nil {
		t.Fatalf("reload under the batch: %v", err)
	}
	if epoch <= before {
		t.Fatalf("the swap did not commit: epoch %d after %d", epoch, before)
	}
	out := <-done
	if out.err != nil {
		t.Fatalf("batch under a reload: %v", out.err)
	}
	if out.batch.Epoch != before {
		t.Fatalf("batch answered from epoch %d, want %d", out.batch.Epoch, before)
	}
	for i, item := range out.batch.Items {
		if item.Epoch != out.batch.Epoch {
			t.Fatalf("item %d answered from epoch %d in a batch of epoch %d", i, item.Epoch, out.batch.Epoch)
		}
	}
}

// commitGate is a comms proxy in front of one worker that forwards every
// frame at once except FrameCommit, which it holds until release is closed.
// seen is closed when the first commit arrives; passed counts the frames
// forwarded past a held commit.
type commitGate struct {
	addr    string
	seen    chan struct{}
	release chan struct{}
	passed  atomic.Int32
}

func startCommitGate(t *testing.T, target string) *commitGate {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	g := &commitGate{addr: ln.Addr().String(), seen: make(chan struct{}), release: make(chan struct{})}
	var (
		seenOnce sync.Once
		mu       sync.Mutex
		conns    []net.Conn
	)
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	go func() {
		for {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			worker, err := net.Dial("tcp", target)
			if err != nil {
				client.Close()
				continue
			}
			mu.Lock()
			conns = append(conns, client, worker)
			mu.Unlock()
			go io.Copy(client, worker)
			go func() {
				var wmu sync.Mutex // one writer at a time towards the worker
				forward := func(f comms.Frame) {
					wmu.Lock()
					defer wmu.Unlock()
					comms.WriteFrame(worker, f, nil)
				}
				var buf []byte
				for {
					f, nb, err := comms.ReadFrame(client, buf)
					buf = nb
					if err != nil {
						return
					}
					if f.Type != FrameCommit {
						select {
						case <-g.seen:
							g.passed.Add(1)
						default:
						}
						forward(f)
						continue
					}
					f.Payload = append([]byte(nil), f.Payload...)
					seenOnce.Do(func() { close(g.seen) })
					go func() {
						<-g.release
						forward(f)
					}()
				}
			}()
		}
	}()
	return g
}

// TestClusterQueriesNeverStraddleCommit holds the last worker's commit of a
// two-phase swap while the others have committed, and fires every strategy
// from several clients into that window: each answer must be a 200 equal to
// a single node's at the old or the new epoch — never an epoch-skew 502, and
// never names resolved at one epoch against shards of another.
func TestClusterQueriesNeverStraddleCommit(t *testing.T) {
	lib1, lib2 := clusterTestLibrary(1, 40), clusterTestLibrary(2, 55)
	load2 := func() (*goalrec.Library, error) { return lib2, nil }
	workers := startWorkers(t, lib1, 3, load2)
	gate := startCommitGate(t, workers[2].addr)
	co := NewCoordinator(goalrec.NewEngineFromLibrary(lib1), CoordinatorConfig{
		Peers:  []string{workers[0].addr, workers[1].addr, gate.addr},
		Reload: load2,
	})
	t.Cleanup(co.Close)
	var arrived atomic.Int32 // recommend requests that reached the front end
	front := NewHTTPHandler(co)
	cluster := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/recommend" {
			arrived.Add(1)
		}
		front.ServeHTTP(w, r)
	}))
	defer cluster.Close()

	queries := []string{
		`{"activity": ["a1", "a5", "a9"], "strategy": "focus-cmp", "k": 5}`,
		`{"activity": ["a1", "a5", "a9"], "strategy": "focus-cl", "k": 5}`,
		`{"activity": ["a1", "a5", "a9"], "strategy": "breadth", "k": 10}`,
		`{"activity": ["a2", "a7"], "strategy": "best-match", "k": 8}`,
		`{"activity": ["a2", "a7"], "strategy": "best-match", "metric": "manhattan", "k": 8}`,
	}
	single1 := httptest.NewServer(server.New(lib1, nil))
	defer single1.Close()
	engine2 := goalrec.NewEngineFromLibrary(lib1)
	engine2.Swap(lib2)
	single2 := httptest.NewServer(server.NewFromEngine(engine2, nil))
	defer single2.Close()
	want := make(map[string][2][]byte, len(queries))
	for _, q := range queries {
		_, b1 := postBody(t, single1.URL+"/v1/recommend", q)
		_, b2 := postBody(t, single2.URL+"/v1/recommend", q)
		want[q] = [2][]byte{b1, b2}
	}
	for _, q := range queries { // registers every worker at epoch 1
		if code, body := postBody(t, cluster.URL+"/v1/recommend", q); code != http.StatusOK {
			t.Fatalf("%s before the swap: %d %s", q, code, body)
		}
	}
	const clients = 4
	inWindow := arrived.Load() + clients

	reloaded := make(chan error, 1)
	go func() {
		resp, err := http.Post(cluster.URL+"/v1/reload", "application/json", strings.NewReader(`{}`))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("reload: status %d", resp.StatusCode)
			}
		}
		reloaded <- err
	}()
	select {
	case <-gate.seen:
	case err := <-reloaded:
		t.Fatalf("reload ended before the last commit was held: %v", err)
	}

	type answer struct {
		query string
		code  int
		body  []byte
		err   error
	}
	answers := make(chan answer, clients*len(queries))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, q := range queries {
				resp, err := http.Post(cluster.URL+"/v1/recommend", "application/json", strings.NewReader(q))
				a := answer{query: q, err: err}
				if err == nil {
					a.code = resp.StatusCode
					a.body, a.err = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
				answers <- a
			}
		}()
	}
	for arrived.Load() < inWindow { // every client has a query in the window
		time.Sleep(50 * time.Microsecond)
	}
	// A coordinator that lets queries into the window scatters each to the
	// held worker too; one that holds them off sends nothing, so that wait
	// is bounded.
	for deadline := time.Now().Add(200 * time.Millisecond); gate.passed.Load() < clients && time.Now().Before(deadline); {
		time.Sleep(50 * time.Microsecond)
	}
	close(gate.release)
	wg.Wait()
	close(answers)
	if err := <-reloaded; err != nil {
		t.Fatal(err)
	}
	for a := range answers {
		if a.err != nil {
			t.Fatalf("%s: %v", a.query, a.err)
		}
		if w := want[a.query]; a.code != http.StatusOK || !(bytes.Equal(a.body, w[0]) || bytes.Equal(a.body, w[1])) {
			t.Errorf("%s across the commit: %d %s\nwant epoch 1: %s\n  or epoch 2: %s", a.query, a.code, a.body, w[0], w[1])
		}
	}
	if got := co.Epoch(); got != 2 {
		t.Fatalf("coordinator epoch after the swap: %d, want 2", got)
	}
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

// TestConnectBoundsTheDial: connect dials a worker under a context that
// expires within dialTimeout, so a worker whose SYNs are dropped holds the
// peer's lock (and every query, heartbeat and /readyz behind it) for at most
// that long, and the dialer's error is what connect returns.
func TestConnectBoundsTheDial(t *testing.T) {
	defer func(d func(context.Context, string, string) (net.Conn, error)) { dialWorker = d }(dialWorker)
	refused := errors.New("dial refused")
	var remaining time.Duration
	dialWorker = func(ctx context.Context, network, addr string) (net.Conn, error) {
		deadline, ok := ctx.Deadline()
		if !ok {
			t.Error("worker dialed with no deadline")
		}
		remaining = time.Until(deadline)
		return nil, refused
	}
	co := &Coordinator{}
	if _, err := co.connect(&peer{addr: "worker.invalid:1"}); !errors.Is(err, refused) {
		t.Fatalf("connect err = %v, want the dialer's", err)
	}
	if remaining <= 0 || remaining > dialTimeout {
		t.Fatalf("dial deadline %v away, want within (0, %v]", remaining, dialTimeout)
	}
}

// slowReplyConn delays the first read — the worker's reply to registration —
// by delay.
type slowReplyConn struct {
	net.Conn
	delay time.Duration
	once  sync.Once
}

func (c *slowReplyConn) Read(p []byte) (int, error) {
	c.once.Do(func() { time.Sleep(c.delay) })
	return c.Conn.Read(p)
}

// TestFirstQueryRegistersWorkersConcurrently: the first query registers
// every worker at once, so two workers whose registration reply takes D
// cost it about D, not 2D.
func TestFirstQueryRegistersWorkersConcurrently(t *testing.T) {
	const delay = 300 * time.Millisecond
	defer func(d func(context.Context, string, string) (net.Conn, error)) { dialWorker = d }(dialWorker)
	dial := dialWorker
	dialWorker = func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := dial(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return &slowReplyConn{Conn: c, delay: delay}, nil
	}
	lib := clusterTestLibrary(57, 200)
	co := startCoordinator(t, lib, startWorkers(t, lib, 2, nil), CoordinatorConfig{})
	t0 := time.Now()
	res, err := co.Recommend(context.Background(), "breadth", "", []string{"a1", "a2"}, 5)
	took := time.Since(t0)
	if err != nil || res.Degraded {
		t.Fatalf("first query: %+v, err %v", res, err)
	}
	if took >= delay*3/2 {
		t.Fatalf("the first query took %v with a %v registration reply from each of 2 workers, want < %v", took, delay, delay*3/2)
	}
}
