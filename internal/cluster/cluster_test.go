package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"goalrec"
	"goalrec/internal/comms"
	"goalrec/internal/server"
)

// clusterTestLibrary builds a deterministic random library with heavy score
// ties (small goal/action spaces, many implementations) so shard boundaries
// routinely cut through equal-score runs — the case the merge tie-break
// order must get right.
func clusterTestLibrary(seed int64, impls int) *goalrec.Library {
	r := rand.New(rand.NewSource(seed))
	b := goalrec.NewBuilder()
	const nActions, nGoals = 40, 12
	for i := 0; i < impls; i++ {
		goal := fmt.Sprintf("g%d", r.Intn(nGoals))
		n := 1 + r.Intn(5)
		seen := make(map[int]bool, n)
		actions := make([]string, 0, n)
		for len(actions) < n {
			a := r.Intn(nActions)
			if seen[a] {
				continue
			}
			seen[a] = true
			actions = append(actions, fmt.Sprintf("a%d", a))
		}
		if err := b.AddImplementation(goal, actions...); err != nil {
			panic(err)
		}
	}
	return b.Build()
}

// testWorker is one running shard worker plus the handles the tests use to
// kill and resurrect it.
type testWorker struct {
	worker *Worker
	ln     net.Listener
	addr   string
	engine *goalrec.Engine
	cfg    WorkerConfig
}

func (tw *testWorker) kill() {
	tw.worker.Close()
	tw.ln.Close()
}

// revive restarts a killed worker on its original address with its original
// engine — the "worker restarted from its own snapshot+WAL" case.
func (tw *testWorker) revive(t *testing.T) {
	t.Helper()
	ln, err := net.Listen("tcp", tw.addr)
	if err != nil {
		t.Fatalf("re-listening on %s: %v", tw.addr, err)
	}
	tw.ln = ln
	tw.worker = NewWorker(tw.engine, tw.cfg)
	go tw.worker.Serve(ln)
	t.Cleanup(tw.worker.Close)
}

// startWorkers launches parts workers over lib, splitting the library into
// contiguous ranges with the last shard open-ended (Hi == -1).
func startWorkers(t *testing.T, lib *goalrec.Library, parts int,
	reload func() (*goalrec.Library, error)) []*testWorker {
	t.Helper()
	n := lib.NumImplementations()
	per := (n + parts - 1) / parts
	workers := make([]*testWorker, parts)
	for i := 0; i < parts; i++ {
		lo := i * per
		hi := lo + per
		if i == parts-1 {
			hi = -1
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		tw := &testWorker{
			ln:     ln,
			addr:   ln.Addr().String(),
			engine: goalrec.NewEngineFromLibrary(lib),
			cfg:    WorkerConfig{Lo: lo, Hi: hi, Reload: reload},
		}
		tw.worker = NewWorker(tw.engine, tw.cfg)
		go tw.worker.Serve(ln)
		t.Cleanup(func() { tw.worker.Close(); tw.ln.Close() })
		workers[i] = tw
	}
	return workers
}

func workerAddrs(workers []*testWorker) []string {
	addrs := make([]string, len(workers))
	for i, tw := range workers {
		addrs[i] = tw.addr
	}
	return addrs
}

func startCoordinator(t *testing.T, lib *goalrec.Library, workers []*testWorker, cfg CoordinatorConfig) *Coordinator {
	t.Helper()
	cfg.Peers = workerAddrs(workers)
	co := NewCoordinator(goalrec.NewEngineFromLibrary(lib), cfg)
	t.Cleanup(co.Close)
	return co
}

func postBody(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// oracleBodies are the topology oracle's /v1/recommend probes: every
// strategy, metric and k shape, unknown actions, and validation errors.
var oracleBodies = []string{
	`{"activity": ["a1", "a5", "a9"], "strategy": "focus-cmp", "k": 5}`,
	`{"activity": ["a1", "a5", "a9"], "strategy": "focus-cmp", "k": 1}`,
	`{"activity": ["a1", "a5", "a9"], "strategy": "focus-cmp", "k": 200}`,
	`{"activity": ["a3"], "strategy": "focus-cl", "k": 7}`,
	`{"activity": ["a1", "a5", "a9"], "strategy": "focus-cl", "k": 40}`,
	`{"activity": ["a1", "a5", "a9"], "strategy": "breadth", "k": 10}`,
	`{"activity": ["a1", "a5", "a9"], "strategy": "breadth-count", "k": 15}`,
	`{"activity": ["a1", "a5", "a9"], "strategy": "breadth-union", "k": 15}`,
	`{"activity": ["a2", "a7"], "strategy": "best-match", "k": 8}`,
	`{"activity": ["a2", "a7"], "strategy": "best-match", "metric": "jaccard", "k": 8}`,
	`{"activity": ["a2", "a7"], "strategy": "best-match", "metric": "euclidean", "k": 8}`,
	`{"activity": ["a2", "a7"], "strategy": "best-match", "metric": "manhattan", "k": 8}`,
	`{"activity": ["a4", "a11", "a19", "a23"]}`, // default strategy + k
	// Unknown actions: reported, deduplicated, sorted — identically.
	`{"activity": ["a1", "zzz", "a5", "zzz", "aaa"], "strategy": "focus-cmp", "k": 5}`,
	`{"activity": ["nope", "really-not"], "strategy": "breadth", "k": 5}`,
	// Validation errors must match too.
	`{"activity": [], "strategy": "breadth"}`,
	`{"activity": ["a1"], "k": 2000}`,
	`{"activity": ["a1"], "strategy": "no-such-strategy"}`,
	`{"activity": ["a1"], "strategy": "best-match", "metric": "hamming"}`,
}

// oracleBatchBodies are the oracle's /v1/recommend/batch probes.
var oracleBatchBodies = []string{
	`{"activities": [["a1", "a5"], ["a2"], ["a9", "zzz"]], "strategy": "focus-cmp", "k": 4}`,
	`{"activities": [["a1", "a5"], [], ["a9"]], "strategy": "breadth", "k": 6}`,
	`{"activities": [["a2", "a7"], ["a3"]], "strategy": "best-match", "metric": "jaccard", "k": 5}`,
	`{"activities": [], "strategy": "breadth"}`,
}

// assertAnswersLike posts every oracle probe to a single node and to a
// cluster front end and fails on any difference in status or bytes.
func assertAnswersLike(t *testing.T, singleURL, clusterURL string) {
	t.Helper()
	for _, body := range oracleBodies {
		sCode, sBody := postBody(t, singleURL+"/v1/recommend", body)
		cCode, cBody := postBody(t, clusterURL+"/v1/recommend", body)
		if sCode != cCode {
			t.Errorf("status mismatch for %s: single %d, cluster %d (%s)", body, sCode, cCode, cBody)
			continue
		}
		if !bytes.Equal(sBody, cBody) {
			t.Errorf("body mismatch for %s:\n single: %s\ncluster: %s", body, sBody, cBody)
		}
	}
	for _, body := range oracleBatchBodies {
		sCode, sBody := postBody(t, singleURL+"/v1/recommend/batch", body)
		cCode, cBody := postBody(t, clusterURL+"/v1/recommend/batch", body)
		if sCode != cCode {
			t.Errorf("batch status mismatch for %s: single %d, cluster %d (%s)", body, sCode, cCode, cBody)
			continue
		}
		if !bytes.Equal(sBody, cBody) {
			t.Errorf("batch body mismatch for %s:\n single: %s\ncluster: %s", body, sBody, cBody)
		}
	}
}

// TestClusterHTTPBitIdenticalToSingleNode is the topology oracle: the same
// request posted to a single-node server and to a 3-shard cluster must come
// back byte-for-byte identical (both engines start their lineage at epoch 1,
// so even the epoch field agrees), for every strategy.
func TestClusterHTTPBitIdenticalToSingleNode(t *testing.T) {
	// Focus shards run the counter kernel, the one rank source left.
	t.Run("pruning=false", func(t *testing.T) {
		lib := clusterTestLibrary(1, 60)
		single := httptest.NewServer(server.New(lib, nil))
		defer single.Close()
		workers := startWorkers(t, lib, 3, nil)
		co := startCoordinator(t, lib, workers, CoordinatorConfig{})
		cluster := httptest.NewServer(NewHTTPHandler(co))
		defer cluster.Close()
		assertAnswersLike(t, single.URL, cluster.URL)
	})
}

// TestClusterMappedShards runs the oracle on the daemon's load path: every
// node loads the artifact through its sidecar, so each worker serves its
// range from a shard file of its own, mapped, and the cluster must still
// answer byte-identically to a single node.
func TestClusterMappedShards(t *testing.T) {
	// The as-loaded layout, the one layout left.
	t.Run("impact=false", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "lib.jsonl")
		saveJSON(t, clusterTestLibrary(4, 60), path)
		load := func() *goalrec.Library {
			lib, _, err := goalrec.LoadLibraryFileMapped(path)
			if err != nil {
				t.Fatal(err)
			}
			return lib
		}
		single := httptest.NewServer(server.New(load(), nil))
		defer single.Close()
		workers := startWorkers(t, load(), 3, nil)
		co := startCoordinator(t, load(), workers, CoordinatorConfig{})
		cluster := httptest.NewServer(NewHTTPHandler(co))
		defer cluster.Close()
		assertAnswersLike(t, single.URL, cluster.URL)

		for i, tw := range workers {
			sh, err := tw.worker.currentShard()
			if err != nil {
				t.Fatal(err)
			}
			if got := sh.part.Backing().Backing; got != "mapped" {
				t.Errorf("worker %d serves [%d, %d) from the %s", i, sh.lo, sh.hi, got)
			}
		}
		files, err := filepath.Glob(path + ".shard-*.gsnp")
		if err != nil || len(files) != len(workers) {
			t.Fatalf("shard files %v (%v), want one per worker", files, err)
		}
	})
}

// TestClusterTwoPhaseSwap drives /v1/reload through both outcomes: a clean
// prepare-commit that lands every node on epoch 2 serving the new artifact,
// and an aborted swap (one worker's reload fails) that leaves every node on
// the old epoch serving the old artifact.
func TestClusterTwoPhaseSwap(t *testing.T) {
	heap := func(lib *goalrec.Library) func() (*goalrec.Library, error) {
		return func() (*goalrec.Library, error) { return lib, nil }
	}
	t.Run("heap", func(t *testing.T) {
		testTwoPhaseSwap(t, heap(clusterTestLibrary(1, 40)), heap(clusterTestLibrary(2, 55)))
	})
	// The daemon's load path: every node maps the artifact's sidecar
	// snapshot, anew on each reload → prepare → commit.
	t.Run("sidecars warm", func(t *testing.T) {
		testTwoPhaseSwap(t, viaSidecar(t, clusterTestLibrary(1, 40)), viaSidecar(t, clusterTestLibrary(2, 55)))
	})
}

// saveJSON writes lib to path as JSON lines.
func saveJSON(t *testing.T, lib *goalrec.Library, path string) {
	t.Helper()
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
}

// viaSidecar saves lib as JSON lines, builds its sidecar, and returns a load
// function that must find the sidecar warm on every call.
func viaSidecar(t *testing.T, lib *goalrec.Library) func() (*goalrec.Library, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "lib.jsonl")
	saveJSON(t, lib, path)
	if _, _, err := goalrec.LoadLibraryFileMapped(path); err != nil {
		t.Fatal(err)
	}
	return func() (*goalrec.Library, error) {
		lib, decision, err := goalrec.LoadLibraryFileMapped(path)
		if err == nil && decision != goalrec.SidecarHit {
			err = fmt.Errorf("sidecar of %s was not warm: %s", path, decision)
		}
		return lib, err
	}
}

func testTwoPhaseSwap(t *testing.T, load1, load2 func() (*goalrec.Library, error)) {
	lib1, err := load1()
	if err != nil {
		t.Fatal(err)
	}
	lib2, err := load2()
	if err != nil {
		t.Fatal(err)
	}

	var failPrepare atomic.Bool
	var failWorker atomic.Int32 // which worker index fails prepare
	reloadFor := func(idx int32) func() (*goalrec.Library, error) {
		return func() (*goalrec.Library, error) {
			if failPrepare.Load() && failWorker.Load() == idx {
				return nil, fmt.Errorf("synthetic reload failure")
			}
			return load2()
		}
	}
	// Build the 3 workers directly so each gets its own indexed reload func.
	var workers []*testWorker
	n := lib1.NumImplementations()
	per := (n + 2) / 3
	for i := 0; i < 3; i++ {
		lo, hi := i*per, (i+1)*per
		if i == 2 {
			hi = -1
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		tw := &testWorker{
			ln:     ln,
			addr:   ln.Addr().String(),
			engine: goalrec.NewEngineFromLibrary(lib1),
			cfg:    WorkerConfig{Lo: lo, Hi: hi, Reload: reloadFor(int32(i))},
		}
		tw.worker = NewWorker(tw.engine, tw.cfg)
		go tw.worker.Serve(ln)
		t.Cleanup(func() { tw.worker.Close(); tw.ln.Close() })
		workers = append(workers, tw)
	}
	co := startCoordinator(t, lib1, workers, CoordinatorConfig{Reload: load2})
	cluster := httptest.NewServer(NewHTTPHandler(co))
	defer cluster.Close()

	// Abort path first: worker 1's reload fails, the swap must roll back.
	failPrepare.Store(true)
	failWorker.Store(1)
	code, body := postBody(t, cluster.URL+"/v1/reload", `{}`)
	if code != http.StatusInternalServerError {
		t.Fatalf("reload with failing worker: got %d (%s), want 500", code, body)
	}
	if co.Epoch() != 1 {
		t.Fatalf("coordinator epoch after aborted swap: got %d, want 1", co.Epoch())
	}
	for i, tw := range workers {
		if e := tw.engine.Epoch(); e != 1 {
			t.Fatalf("worker %d epoch after aborted swap: got %d, want 1", i, e)
		}
	}
	if got := co.Metrics().Snapshot(0).Swaps.Aborted; got < 1 {
		t.Fatalf("swaps.aborted after aborted swap: got %d, want >= 1", got)
	}

	// The cluster still serves lib1, identically to a single node on lib1.
	single1 := httptest.NewServer(server.New(lib1, nil))
	defer single1.Close()
	query := `{"activity": ["a1", "a5", "a9"], "strategy": "focus-cmp", "k": 5}`
	_, sBody := postBody(t, single1.URL+"/v1/recommend", query)
	_, cBody := postBody(t, cluster.URL+"/v1/recommend", query)
	if !bytes.Equal(sBody, cBody) {
		t.Fatalf("post-abort mismatch:\n single: %s\ncluster: %s", sBody, cBody)
	}

	// Clean path: everyone reloads lib2 and commits to epoch 2 in lockstep.
	failPrepare.Store(false)
	code, body = postBody(t, cluster.URL+"/v1/reload", `{}`)
	if code != http.StatusOK {
		t.Fatalf("reload: got %d (%s), want 200", code, body)
	}
	var rr struct {
		Epoch           uint64 `json:"epoch"`
		Implementations int    `json:"implementations"`
	}
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Epoch != 2 || rr.Implementations != lib2.NumImplementations() {
		t.Fatalf("reload reply: got epoch %d / %d impls, want 2 / %d", rr.Epoch, rr.Implementations, lib2.NumImplementations())
	}
	for i, tw := range workers {
		if e := tw.engine.Epoch(); e != 2 {
			t.Fatalf("worker %d epoch after swap: got %d, want 2", i, e)
		}
	}
	if got := co.Metrics().Snapshot(0).Swaps.Committed; got != 1 {
		t.Fatalf("swaps.committed: got %d, want 1", got)
	}

	// A single node that swapped lib1 -> lib2 is also at epoch 2 with lib2,
	// so responses must again be byte-identical.
	single2 := goalrec.NewEngineFromLibrary(lib1)
	single2.Swap(lib2)
	ts2 := httptest.NewServer(server.NewFromEngine(single2, nil))
	defer ts2.Close()
	for _, q := range []string{
		`{"activity": ["a1", "a5", "a9"], "strategy": "focus-cmp", "k": 5}`,
		`{"activity": ["a1", "a5", "a9"], "strategy": "breadth", "k": 10}`,
		`{"activity": ["a2", "a7"], "strategy": "best-match", "k": 8}`,
	} {
		_, sBody := postBody(t, ts2.URL+"/v1/recommend", q)
		_, cBody := postBody(t, cluster.URL+"/v1/recommend", q)
		if !bytes.Equal(sBody, cBody) {
			t.Fatalf("post-swap mismatch for %s:\n single: %s\ncluster: %s", q, sBody, cBody)
		}
	}
}

// TestClusterPartialFailurePolicies kills a worker mid-cluster: the
// coordinator serves a flagged merge of the surviving shards, and with every
// worker down it fails the query; after the workers rejoin on their original
// addresses, responses are bit-identical to the pre-failure ones again.
func TestClusterPartialFailurePolicies(t *testing.T) {
	lib := clusterTestLibrary(3, 45)
	workers := startWorkers(t, lib, 3, nil)
	co := startCoordinator(t, lib, workers, CoordinatorConfig{})
	cluster := httptest.NewServer(NewHTTPHandler(co))
	defer cluster.Close()

	ctx := context.Background()
	activity := []string{"a1", "a5", "a9"}
	query := `{"activity": ["a1", "a5", "a9"], "strategy": "breadth", "k": 10}`

	// Healthy baseline.
	_, healthy := postBody(t, cluster.URL+"/v1/recommend", query)
	if strings.Contains(string(healthy), "degraded") {
		t.Fatalf("healthy response flagged degraded: %s", healthy)
	}

	// Kill the middle shard.
	workers[1].kill()

	res, err := co.Recommend(ctx, "breadth", "", activity, 10)
	if err != nil {
		t.Fatalf("a coordinator should serve through a dead shard: %v", err)
	}
	if !res.Degraded {
		t.Fatal("response with a dead shard not flagged degraded")
	}
	snap := co.Metrics().Snapshot(co.Connected())
	if snap.PartialFailures < 1 || snap.DegradedResponses < 1 {
		t.Fatalf("metrics after degraded query: partial_failures=%d degraded_responses=%d, want >= 1 each",
			snap.PartialFailures, snap.DegradedResponses)
	}
	// The HTTP response carries the degraded flag.
	code, dBody := postBody(t, cluster.URL+"/v1/recommend", query)
	if code != http.StatusOK || !strings.Contains(string(dBody), `"degraded":true`) {
		t.Fatalf("degraded HTTP response: code %d body %s", code, dBody)
	}

	// Every strategy degrades, not just breadth (Focus and the two-round
	// Best Match path have their own gather code).
	for _, strat := range []string{"focus-cmp", "focus-cl", "best-match"} {
		res, err := co.Recommend(ctx, strat, "", activity, 5)
		if err != nil {
			t.Fatalf("degraded %s: %v", strat, err)
		}
		if !res.Degraded {
			t.Fatalf("degraded %s: response not flagged", strat)
		}
	}

	// With no shard left there is nothing to degrade to: the query fails.
	workers[0].kill()
	workers[2].kill()
	if _, err := co.Recommend(ctx, "breadth", "", activity, 10); err == nil {
		t.Fatal("a coordinator served with every shard down")
	} else if !strings.Contains(err.Error(), "3 of 3 shards failed") {
		t.Fatalf("every shard down: %v", err)
	}
	if code, body := postBody(t, cluster.URL+"/v1/recommend", query); code != http.StatusBadGateway {
		t.Fatalf("every shard down over HTTP: got %d (%s), want 502", code, body)
	}
	if got := co.Metrics().Snapshot(co.Connected()).FailedQueries; got < 2 {
		t.Fatalf("failed_queries with every shard down: got %d, want >= 2", got)
	}

	// Rejoin: same addresses, same engines — and the ranking snaps back to
	// the exact healthy bytes.
	for _, w := range workers {
		w.revive(t)
	}
	deadline := time.Now().Add(5 * time.Second)
	var rejoined []byte
	for {
		code, rejoined = postBody(t, cluster.URL+"/v1/recommend", query)
		if code == http.StatusOK && bytes.Equal(rejoined, healthy) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("post-rejoin response never matched healthy baseline:\nhealthy: %s\n  after: %s", healthy, rejoined)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestClusterEpochSkewRefused pins the consistency guard: if one worker
// serves a different epoch than the others (here: a unilateral swap behind
// the coordinator's back), the merge is refused rather than silently mixing
// library states.
func TestClusterEpochSkewRefused(t *testing.T) {
	lib := clusterTestLibrary(5, 30)
	workers := startWorkers(t, lib, 3, nil)
	co := startCoordinator(t, lib, workers, CoordinatorConfig{})

	// Same artifact (vocab checksum unchanged), different epoch.
	workers[0].engine.Swap(lib)

	_, err := co.Recommend(context.Background(), "breadth", "", []string{"a1", "a5"}, 5)
	if err == nil || !strings.Contains(err.Error(), "epoch skew") {
		t.Fatalf("skewed cluster: got err %v, want epoch skew refusal", err)
	}
	if got := co.Metrics().Snapshot(0).FailedQueries; got < 1 {
		t.Fatalf("failed_queries after skew: got %d, want >= 1", got)
	}
}

// TestClusterVocabMismatchRejected pins the registration guard: a worker
// serving a different artifact never gets queries — one with other names,
// and one with the same names interned in another first-seen order, which
// would resolve the coordinator's ids to other actions.
func TestClusterVocabMismatchRejected(t *testing.T) {
	lib := clusterTestLibrary(6, 20)
	for _, tc := range []struct {
		name   string
		worker *goalrec.Library
	}{
		{"other names", clusterTestLibrary(7, 20)},
		{"same names, other order", reversedLibrary(t, lib)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			workers := startWorkers(t, tc.worker, 1, nil)
			co := startCoordinator(t, lib, workers, CoordinatorConfig{})

			_, err := co.Recommend(context.Background(), "breadth", "", []string{"a1"}, 5)
			if err == nil || !strings.Contains(err.Error(), "different artifact") {
				t.Fatalf("vocab mismatch: got err %v, want artifact rejection", err)
			}
		})
	}
}

// reversedLibrary loads lib's implementations in reverse order: the same
// names and implementations, first seen in another order, so other ids.
func reversedLibrary(t *testing.T, lib *goalrec.Library) *goalrec.Library {
	t.Helper()
	var buf bytes.Buffer
	if err := lib.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	slices.Reverse(lines)
	rev, err := goalrec.LoadLibraryJSON(strings.NewReader(strings.Join(lines, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rev.Actions(), lib.Actions()) || !slices.Equal(rev.Goals(), lib.Goals()) ||
		rev.NumImplementations() != lib.NumImplementations() {
		t.Fatal("the reversed library does not hold the same names and implementations")
	}
	return rev
}

// TestWorkerRegistrationReportsOneLibrary pins that a worker's registration
// and heartbeat replies describe one library: after prepare → commit onto a
// library with another vocabulary the reply carries the committed library's
// (epoch, vocabulary) pair, and while swaps race the registrations no reply
// pairs one epoch with another epoch's vocabulary.
func TestWorkerRegistrationReportsOneLibrary(t *testing.T) {
	libA, libB := clusterTestLibrary(1, 40), clusterTestLibrary(2, 40)
	if libA.VocabChecksum() == libB.VocabChecksum() {
		t.Fatal("the two libraries must differ in vocabulary")
	}
	var next atomic.Int64
	reload := func() (*goalrec.Library, error) {
		if next.Add(1)%2 == 1 {
			return libB, nil
		}
		return libA, nil
	}
	tw := startWorkers(t, libA, 1, reload)[0]
	conn, err := comms.Dial(tw.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	do := func(typ uint8, v any) {
		t.Helper()
		f, err := conn.Do(context.Background(), typ, nil)
		if err == nil {
			err = decodeResponse(f, v)
		}
		if err != nil {
			t.Fatalf("frame %d: %v", typ, err)
		}
	}

	var reg registerResponse
	do(FrameRegister, &reg)
	vocabAt := map[uint64]uint64{reg.Epoch: libA.VocabChecksum()}
	var commit commitResponse
	do(FramePrepare, &prepareResponse{})
	do(FrameCommit, &commit)
	vocabAt[commit.Epoch] = libB.VocabChecksum()
	for _, typ := range []uint8{FrameRegister, FrameHeartbeat} {
		do(typ, &reg)
		if reg.Epoch != commit.Epoch || reg.Vocab != libB.VocabChecksum() {
			t.Fatalf("frame %d after commit: (epoch %d, vocab %016x), want (%d, %016x)",
				typ, reg.Epoch, reg.Vocab, commit.Epoch, libB.VocabChecksum())
		}
	}

	// Registrations racing swaps, each checked once the swap that made its
	// epoch is known.
	var (
		mu      sync.Mutex
		replies []registerResponse
		wg      sync.WaitGroup
		stop    atomic.Bool
	)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				f, err := conn.Do(context.Background(), FrameRegister, nil)
				var r registerResponse
				if err == nil && decodeResponse(f, &r) == nil {
					mu.Lock()
					replies = append(replies, r)
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < 100; i++ {
		do(FramePrepare, &prepareResponse{})
		do(FrameCommit, &commit)
		lib := libA
		if next.Load()%2 == 1 {
			lib = libB
		}
		vocabAt[commit.Epoch] = lib.VocabChecksum()
	}
	stop.Store(true)
	wg.Wait()
	for _, r := range replies {
		if want, ok := vocabAt[r.Epoch]; !ok || r.Vocab != want {
			t.Fatalf("registration reply pairs epoch %d with vocab %016x, want %016x", r.Epoch, r.Vocab, want)
		}
	}
}

// TestClusterCoverageValidation pins the range-tiling guard: shards that
// leave a gap in the implementation space are refused at query time.
func TestClusterCoverageValidation(t *testing.T) {
	lib := clusterTestLibrary(8, 30)
	// Two workers covering [0, 10) and [20, end) — a gap at [10, 20).
	var workers []*testWorker
	for _, r := range [][2]int{{0, 10}, {20, -1}} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		tw := &testWorker{
			ln:     ln,
			addr:   ln.Addr().String(),
			engine: goalrec.NewEngineFromLibrary(lib),
			cfg:    WorkerConfig{Lo: r[0], Hi: r[1]},
		}
		tw.worker = NewWorker(tw.engine, tw.cfg)
		go tw.worker.Serve(ln)
		t.Cleanup(func() { tw.worker.Close(); tw.ln.Close() })
		workers = append(workers, tw)
	}
	co := startCoordinator(t, lib, workers, CoordinatorConfig{})
	_, err := co.Recommend(context.Background(), "breadth", "", []string{"a1"}, 5)
	if err == nil || !strings.Contains(err.Error(), "tile") {
		t.Fatalf("gapped ranges: got err %v, want tiling refusal", err)
	}
}

// TestClusterMetricsEndpoint sanity-checks the "cluster" block in
// /v1/metrics: present, well-formed, with the histogram populated after a
// few queries.
func TestClusterMetricsEndpoint(t *testing.T) {
	lib := clusterTestLibrary(9, 30)
	workers := startWorkers(t, lib, 2, nil)
	co := startCoordinator(t, lib, workers, CoordinatorConfig{})
	cluster := httptest.NewServer(NewHTTPHandler(co))
	defer cluster.Close()

	for i := 0; i < 3; i++ {
		postBody(t, cluster.URL+"/v1/recommend", `{"activity": ["a1", "a5"], "strategy": "focus-cmp", "k": 5}`)
	}
	resp, err := http.Get(cluster.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var m struct {
		Epoch   uint64 `json:"epoch"`
		Cluster struct {
			Workers         int   `json:"workers"`
			Connected       int   `json:"connected"`
			Scatters        int64 `json:"scatters"`
			FanoutLatencyMs []struct {
				Le    string `json:"le"`
				Count int64  `json:"count"`
			} `json:"fanout_latency_ms"`
		} `json:"cluster"`
		Library goalrec.LibraryBacking `json:"library"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("metrics not valid JSON: %v\n%s", err, raw)
	}
	if want := lib.Backing(); m.Library.Backing != "heap" || m.Library.IndexBytes != want.IndexBytes ||
		m.Library.IndexBytes.ImplCSR == 0 || m.Library.VocabNames != want.VocabNames ||
		m.Library.Vocab != want.Vocab || m.Library.Overlay != want.Overlay || m.Library.TailImplementations != 0 {
		t.Fatalf("library block: %+v, want the backing of the coordinator's copy %+v", m.Library, want)
	}
	if m.Cluster.Workers != 2 || m.Cluster.Connected != 2 {
		t.Fatalf("cluster block workers/connected: %+v", m.Cluster)
	}
	if bytes.Contains(raw, []byte(`"cache":`)) {
		t.Fatalf("a coordinator caches no responses, but its metrics show a cache block:\n%s", raw)
	}
	if m.Cluster.Scatters < 3 {
		t.Fatalf("scatters: got %d, want >= 3", m.Cluster.Scatters)
	}
	var histTotal int64
	for _, b := range m.Cluster.FanoutLatencyMs {
		histTotal += b.Count
	}
	if histTotal < 6 { // 3 queries x 2 workers
		t.Fatalf("fan-out histogram total: got %d, want >= 6", histTotal)
	}
	if last := m.Cluster.FanoutLatencyMs[len(m.Cluster.FanoutLatencyMs)-1].Le; last != "inf" {
		t.Fatalf("last histogram bound: got %q, want inf", last)
	}

	// Every key the end-to-end benchmark reads off a coordinator, by name
	// (bench/run.go), and the lifecycle block it shares with a single node.
	var keys map[string]any
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, path := range [][]string{
		{"epoch"}, {"requests", "recommend"}, {"errors"}, {"lifecycle", "sheds"}, {"lifecycle", "deadline_exceeded"},
		{"reload_failure_streak"}, {"library", "backing"},
		{"cluster", "scatters"}, {"cluster", "degraded_responses"}, {"cluster", "partial_failures"},
		{"cluster", "fanout_latency_ms"}, {"cluster", "swaps", "committed"},
	} {
		var at any = keys
		for _, key := range path {
			block, _ := at.(map[string]any)
			var ok bool
			if at, ok = block[key]; !ok {
				t.Errorf("metrics lack %v:\n%s", path, raw)
				break
			}
		}
	}
}

// lockedBuffer is a log sink the test may read while handlers write.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestClusterNamesEvery5xx: a failed request leaves one line in the
// coordinator's log — status, cause, the coordinator's epoch and the epochs
// the workers last reported; answered requests and client errors leave none.
func TestClusterNamesEvery5xx(t *testing.T) {
	lib := clusterTestLibrary(11, 30)
	workers := startWorkers(t, lib, 2, nil)
	var logged lockedBuffer
	co := startCoordinator(t, lib, workers, CoordinatorConfig{Logger: log.New(&logged, "", 0)})
	cluster := httptest.NewServer(NewHTTPHandler(co))
	defer cluster.Close()

	query := `{"activity": ["a1", "a5"], "strategy": "breadth", "k": 5}`
	if code, body := postBody(t, cluster.URL+"/v1/recommend", query); code != http.StatusOK {
		t.Fatalf("healthy cluster: got %d (%s)", code, body)
	}
	if code, _ := postBody(t, cluster.URL+"/v1/recommend", `{"activity": ["a1"], "strategy": "no-such-strategy"}`); code != http.StatusBadRequest {
		t.Fatalf("bad strategy: got %d, want 400", code)
	}
	if got := logged.String(); strings.Contains(got, "answering") {
		t.Fatalf("a 200 or a 400 was logged as a failure:\n%s", got)
	}

	for _, w := range workers {
		w.kill()
	}
	code, body := postBody(t, cluster.URL+"/v1/recommend", query)
	if code != http.StatusBadGateway {
		t.Fatalf("every shard dead: got %d (%s), want 502", code, body)
	}
	var line string
	for _, l := range strings.Split(logged.String(), "\n") {
		if strings.Contains(l, "answering") {
			if line != "" {
				t.Fatalf("one failed request logged more than once:\n%s", logged.String())
			}
			line = l
		}
	}
	for _, want := range []string{"answering 502", "shards failed", "coordinator epoch 1", "worker epochs [1 1]"} {
		if !strings.Contains(line, want) {
			t.Fatalf("failure line %q lacks %q", line, want)
		}
	}
}
