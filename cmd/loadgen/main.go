// Command loadgen load-tests a running goalrecd instance: it replays
// recommendation requests drawn from a library file and reports throughput
// and latency percentiles.
//
//	goalrecd -library recipes.jsonl -addr :8080 &
//	loadgen -url http://localhost:8080 -library recipes.jsonl \
//	        -concurrency 8 -requests 2000 -strategy breadth
//
// With -overload the generator expects to be shed: 503 (admission control)
// and 504 (request deadline) responses are counted and reported but are
// not failures — only transport errors and unexpected statuses are. This
// is the mode the soak job runs against a gated daemon. -duration runs for
// a wall-clock interval (cycling the sampled requests) instead of a fixed
// request count.
//
// With -users N the generator exercises the per-user store instead of the
// stateless endpoints: requests alternate between appending sampled actions
// to one of N user histories (POST /v1/users/{id}/actions) and scoring a
// stored history (GET /v1/users/{id}/recommend). A recommend racing a
// user's first append may see 404; those are counted and reported, not
// failures.
//
// loadgen is a smoke and soak driver, not a benchmark: the repository's
// performance record is `go run ./bench` (BENCHMARK.json).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"sync"
	"time"

	"goalrec"
	"goalrec/internal/xrand"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

type result struct {
	latency time.Duration
	status  int
	err     error
	items   int // activities carried by the request (1 unbatched)
}

// config carries everything runLoad needs; flags populate it in run and
// tests populate it directly.
type config struct {
	url         string
	strategy    string
	k           int
	concurrency int
	requests    int
	duration    time.Duration // > 0 switches from request-count to wall-clock mode
	activityLen int
	seed        uint64
	zipf        float64 // > 0 samples actions Zipf-skewed with this exponent
	overload    bool
	batch       int // > 1 sends /v1/recommend/batch with this many activities per request
	users       int // > 0 targets the per-user endpoints, spread over this many users
	lib         *goalrec.Library
	out         io.Writer
}

// validate rejects the settings the generator cannot run with — with no
// clients the first request would block forever — naming the flag.
func (cfg config) validate() error {
	for _, c := range []struct {
		flag    string
		val, lo int
	}{
		{"-concurrency", cfg.concurrency, 1},
		{"-activity-len", cfg.activityLen, 1},
		{"-batch", cfg.batch, 1},
		{"-users", cfg.users, 0},
		{"-requests", cfg.requests, 0},
	} {
		if c.val < c.lo {
			return fmt.Errorf("%s must be at least %d, got %d", c.flag, c.lo, c.val)
		}
	}
	return nil
}

func run() error {
	cfg := config{out: os.Stdout}
	flag.StringVar(&cfg.url, "url", "http://localhost:8080", "goalrecd base URL")
	libPath := flag.String("library", "", "library file used to sample query activities")
	flag.StringVar(&cfg.strategy, "strategy", "breadth", "strategy to request")
	flag.IntVar(&cfg.k, "k", 10, "list length to request")
	flag.IntVar(&cfg.concurrency, "concurrency", 4, "parallel clients")
	flag.IntVar(&cfg.requests, "requests", 1000, "total requests to send")
	flag.DurationVar(&cfg.duration, "duration", 0, "run for this long instead of a fixed request count (cycles the sampled requests)")
	flag.IntVar(&cfg.activityLen, "activity-len", 3, "actions per sampled query")
	flag.Uint64Var(&cfg.seed, "seed", 1, "sampling seed")
	flag.Float64Var(&cfg.zipf, "zipf", 0, "sample actions Zipf-skewed with this exponent (0 = uniform); skew concentrates queries on hot actions, the cache-friendly real-traffic shape")
	flag.BoolVar(&cfg.overload, "overload", false, "expect shedding: 503/504 responses are reported, not failures")
	flag.IntVar(&cfg.batch, "batch", 1, "activities per request; > 1 targets /v1/recommend/batch")
	flag.IntVar(&cfg.users, "users", 0, "target the per-user endpoints, alternating appends and recommends over this many users (0 disables)")
	flag.Parse()
	if *libPath == "" {
		return fmt.Errorf("-library is required")
	}
	lib, err := goalrec.LoadLibraryFile(*libPath)
	if err != nil {
		return err
	}
	cfg.lib = lib
	return runLoad(cfg)
}

type reqSpec struct {
	method string
	path   string
	body   []byte
	items  int
}

// buildRequests pre-builds the request bodies deterministically. In batch
// mode the same sampled activities are grouped batch-at-a-time into
// /v1/recommend/batch bodies, so -batch N at the same offered load sends
// 1/N the requests while scoring the same activities.
func buildRequests(cfg config) ([]reqSpec, error) {
	actions := cfg.lib.Actions()
	if len(actions) == 0 {
		return nil, fmt.Errorf("library has no actions")
	}
	rng := xrand.New(cfg.seed)
	nActivities := cfg.requests
	if cfg.duration > 0 && nActivities < 256 {
		nActivities = 256
	}
	var zipf *xrand.Zipf
	if cfg.zipf > 0 {
		zipf = xrand.NewZipf(rng, len(actions), cfg.zipf)
	}
	sample := func() []string {
		n := min(cfg.activityLen, len(actions))
		var idxs []int32
		if zipf != nil {
			idxs = zipf.SampleDistinct(n)
		} else {
			idxs = rng.SampleInt32(int32(len(actions)), n)
		}
		activity := make([]string, 0, n)
		for _, idx := range idxs {
			activity = append(activity, actions[idx])
		}
		return activity
	}
	var reqs []reqSpec
	switch {
	case cfg.users > 0:
		// Per-user mode: alternate history appends and stored-history
		// recommends, spread over cfg.users user ids.
		recommendPath := fmt.Sprintf("?strategy=%s&k=%d", cfg.strategy, cfg.k)
		for i := 0; i < nActivities; i++ {
			id := fmt.Sprintf("u%d", rng.SampleInt32(int32(cfg.users), 1)[0])
			if i%2 == 0 {
				body, err := json.Marshal(map[string]interface{}{"actions": sample()})
				if err != nil {
					return nil, err
				}
				reqs = append(reqs, reqSpec{"POST", "/v1/users/" + id + "/actions", body, 1})
			} else {
				reqs = append(reqs, reqSpec{"GET", "/v1/users/" + id + "/recommend" + recommendPath, nil, 1})
			}
		}
	case cfg.batch == 1:
		for i := 0; i < nActivities; i++ {
			body, err := json.Marshal(map[string]interface{}{
				"activity": sample(), "strategy": cfg.strategy, "k": cfg.k,
			})
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, reqSpec{"POST", "/v1/recommend", body, 1})
		}
	default:
		for done := 0; done < nActivities; {
			n := min(cfg.batch, nActivities-done)
			activities := make([][]string, n)
			for i := range activities {
				activities[i] = sample()
			}
			body, err := json.Marshal(map[string]interface{}{
				"activities": activities, "strategy": cfg.strategy, "k": cfg.k,
			})
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, reqSpec{"POST", "/v1/recommend/batch", body, n})
			done += n
		}
	}
	return reqs, nil
}

// runLoad generates and sends the requests, prints the run's summary and
// applies the failure policy: transport errors and unexpected statuses
// always fail; shed/deadline responses fail unless -overload declared them
// expected.
func runLoad(cfg config) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	reqs, err := buildRequests(cfg)
	if err != nil {
		return err
	}

	client := &http.Client{Timeout: 30 * time.Second}
	jobs := make(chan int)
	results := make([]result, 0, len(reqs))
	var mu sync.Mutex
	var wg sync.WaitGroup

	start := time.Now()
	for w := 0; w < cfg.concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				spec := reqs[i]
				var body io.Reader
				if spec.body != nil {
					body = bytes.NewReader(spec.body)
				}
				req, err := http.NewRequest(spec.method, cfg.url+spec.path, body)
				if err != nil {
					mu.Lock()
					results = append(results, result{err: err, items: spec.items})
					mu.Unlock()
					continue
				}
				if spec.body != nil {
					req.Header.Set("Content-Type", "application/json")
				}
				t0 := time.Now()
				resp, err := client.Do(req)
				r := result{latency: time.Since(t0), err: err, items: spec.items}
				if err == nil {
					r.status = resp.StatusCode
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				mu.Lock()
				results = append(results, r)
				mu.Unlock()
			}
		}()
	}
	if cfg.duration > 0 {
		deadline := start.Add(cfg.duration)
	feed:
		for {
			for i := range reqs {
				if time.Now().After(deadline) {
					break feed
				}
				jobs <- i
			}
		}
	} else {
		for i := range reqs {
			jobs <- i
		}
	}
	close(jobs)
	wg.Wait()
	elapsed := time.Since(start)

	var ok, shed, timedOut, notFound, unexpected, errs, okItems int
	var latencies []time.Duration
	for _, r := range results {
		switch {
		case r.err != nil:
			errs++
		case r.status == http.StatusOK:
			ok++
			okItems += r.items
			latencies = append(latencies, r.latency)
		case r.status == http.StatusServiceUnavailable:
			shed++
		case r.status == http.StatusGatewayTimeout:
			timedOut++
		case r.status == http.StatusNotFound && cfg.users > 0:
			// A recommend raced the user's first append; expected in user mode.
			notFound++
		default:
			unexpected++
		}
	}

	fmt.Fprintf(cfg.out, "requests: %d  ok: %d  shed(503): %d  deadline(504): %d  not_found(404): %d  other: %d  errors: %d\n",
		len(results), ok, shed, timedOut, notFound, unexpected, errs)
	dist := "uniform"
	if cfg.zipf > 0 {
		dist = fmt.Sprintf("zipf(%.2f)", cfg.zipf)
	}
	fmt.Fprintf(cfg.out, "elapsed: %v  throughput: %.1f req/s  recommendations: %.1f activities/s  sampling: %s\n",
		elapsed.Round(time.Millisecond),
		float64(len(results))/elapsed.Seconds(), float64(okItems)/elapsed.Seconds(), dist)
	if len(latencies) > 0 {
		slices.Sort(latencies)
		pct := func(p float64) time.Duration { return latencies[int(p*float64(len(latencies)-1))] }
		fmt.Fprintf(cfg.out, "latency: p50=%v p90=%v p95=%v p99=%v max=%v\n",
			pct(0.50), pct(0.90), pct(0.95), pct(0.99), latencies[len(latencies)-1])
	}
	if errs > 0 || unexpected > 0 {
		return fmt.Errorf("%d transport errors, %d unexpected statuses", errs, unexpected)
	}
	if !cfg.overload && (shed > 0 || timedOut > 0) {
		return fmt.Errorf("%d shed, %d deadline-exceeded responses (run with -overload to expect shedding)", shed, timedOut)
	}
	return nil
}
