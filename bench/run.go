package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"goalrec"
)

// config is one benchmark run.
type config struct {
	wl      *workload
	seed    uint64
	seconds float64 // length of the timed phases: a third closed loop, two thirds open loop
	trace   bool
	out     string // build products, temporary files and trace-<workload>.json
	sz      sizes
	setups  int           // how many times set-up is timed; the median is reported
	warmup  time.Duration // untimed closed loop before the timed phases
	inproc  bool          // serve in-process instead of exec'ing goalrecd (smoke test)
	log     io.Writer     // progress and the metric listing
}

// result is what one run reports.
type result struct {
	attempted int
	failed    int
	metrics   map[string]float64
	env       map[string]string
}

// environment records where the numbers were taken.
func environment() map[string]string {
	env := map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"kernel":     "unknown",
		"commit":     "unknown",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env["kernel"] = strings.TrimSpace(string(b))
	}
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env["commit"] = strings.TrimSpace(string(b))
	}
	return env
}

// run executes one workload end to end: inputs, set-up, warm-up, the timed
// closed and open loops, the verify step, and with cfg.trace the layer
// ladder.
func run(parent context.Context, cfg config) (*result, error) {
	ctx, cancel := context.WithCancelCause(parent)
	defer cancel(nil)
	res := &result{metrics: map[string]float64{}, env: environment()}
	m := res.metrics

	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	if work, err = filepath.Abs(work); err != nil {
		return nil, err
	}

	// Inputs, from the seed alone.
	start := time.Now()
	libPath := filepath.Join(work, "library.jsonl")
	f, err := os.Create(libPath)
	if err != nil {
		return nil, err
	}
	err = writeLibrary(f, cfg.seed, cfg.sz)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("writing the library: %w", err)
	}
	load := make([]*client, loadClients)
	for i := range load {
		load[i] = newClient("", cfg.wl.stream(cfg.seed, i, cfg.sz))
		defer load[i].close()
	}
	verifier := newClient("", cfg.wl.stream(cfg.seed, verifyClient, cfg.sz))
	defer verifier.close()
	m["bench.generate_s"] = time.Since(start).Seconds()

	start = time.Now()
	lib, err := goalrec.LoadLibraryFile(libPath)
	if err != nil {
		return nil, err
	}
	m["core.load_jsonl_s"] = time.Since(start).Seconds()

	// Set-up, several times over; the last deployment stays up.
	inproc := &inprocLauncher{libPath: libPath, workDir: work}
	deploy := func() (*deployment, error) { return inproc.deploy(cfg.wl.topo) }
	if !cfg.inproc {
		bin, err := buildDaemon(ctx, cfg.out)
		if err != nil {
			return nil, err
		}
		l := &launcher{bin: bin, libPath: libPath, workDir: work, impls: cfg.sz.impls, fail: cancel}
		deploy = func() (*deployment, error) { return l.deploy(ctx, cfg.wl.topo) }
	}
	total := &tally{}
	var dep *deployment
	defer func() {
		if dep != nil {
			dep.stop()
		}
	}()
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if dep != nil {
			dep.stop()
		}
		start = time.Now()
		if dep, err = deploy(); err != nil {
			return nil, err
		}
		if err := firstRequest(ctx, cfg.wl, dep, verifier, total); err != nil {
			return nil, fmt.Errorf("%w\n%s", err, stderrTails(dep))
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	m["setup_s"] = median(setups)
	fmt.Fprintf(cfg.log, "set-up times: %.3f s\n", setups)
	verifier.base = dep.front
	for _, c := range load {
		c.base = dep.front
	}
	health, err := getJSON(ctx, dep.front+"/healthz")
	if err != nil {
		return nil, err
	}
	check := newChecker(lib, uint64(dig(health, "epoch")))

	// Warm-up, untimed: fill the session population, then let caches fill.
	seen := &seenKeys{}
	var sessions []*sessionStream
	for _, c := range load {
		if st, ok := c.st.(*sessionStream); ok {
			sessions = append(sessions, st)
			prefill := &tally{}
			sendAll(ctx, c, st.prefill(), prefill)
			prefill.kept = nil // appends have no ranking to check
			total.merge(prefill)
		}
	}
	warm, _ := closedLoop(ctx, load, seen, cfg.warmup)
	total.merge(warm)

	// Timed phases.
	before, err := observe(ctx, dep)
	if err != nil {
		return nil, err
	}
	closedFor := time.Duration(cfg.seconds / 3 * float64(time.Second))
	openFor := time.Duration(cfg.seconds * 2 / 3 * float64(time.Second))
	closed, throughput := closedLoop(ctx, load, seen, closedFor)
	total.merge(closed)
	m["client.throughput_rps"] = throughput

	var open *tally
	var lat, late []float64
	timedOK := closed.ok()
	for try := 0; ; try++ {
		open = openLoop(ctx, load, seen, cfg.wl.rate, openFor)
		total.merge(open)
		timedOK += open.ok()
		lat, late = sortedCopy(open.recommend), sortedCopy(open.late)
		// The generator, not the daemon, must not be the bottleneck: a run
		// whose sender was later than a typical request takes is repeated.
		if quantile(late, 0.99) <= quantile(lat, 0.5) || try == 1 || ctx.Err() != nil {
			m["bench.open_retries"] = float64(try)
			break
		}
		fmt.Fprintf(cfg.log, "open loop invalid: generator p99 lateness %.3f ms exceeds latency p50 %.3f ms; repeating\n",
			quantile(late, 0.99), quantile(lat, 0.5))
	}
	after, err := observe(ctx, dep)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "open loop at %g req/s: %d latency samples, p50 %.3f p90 %.3f p99 %.3f max %.3f ms; sender late p50 %.3f p99 %.3f ms\n",
		cfg.wl.rate, len(lat), quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99), quantile(lat, 1),
		quantile(late, 0.5), quantile(late, 0.99))
	m["client.latency_p50_ms"] = quantile(lat, 0.5)
	m["client.latency_p99_ms"] = quantile(lat, 0.99)
	m["bench.samples"] = float64(len(lat))
	m["bench.gen_late_p99_ms"] = quantile(late, 0.99)
	closedLat := sortedCopy(closed.recommend)
	m["client.closed_p50_ms"] = quantile(closedLat, 0.5)
	m["client.closed_p99_ms"] = quantile(closedLat, 0.99)
	for kind, name := range map[opKind]string{opUserAppend: "append", opUserDelete: "delete", opIngest: "ingest"} {
		v := sortedCopy(append(closed.other[kind], open.other[kind]...))
		m["client."+name+"_p50_ms"] = quantile(v, 0.5)
		if kind == opIngest {
			m["client.ingest_max_ms"] = quantile(v, 1)
		}
	}
	if n := len(closed.recommend) + len(open.recommend); n > 0 {
		m["goalrec.cache_hit_share"] = float64(closed.repeats+open.repeats) / float64(n)
	}
	before.diff(after, cfg.wl.topo, float64(timedOK), m)

	// Quiescent verify step: every answer is kept and checked.
	var verifyOps []op
	for _, st := range sessions {
		verifyOps = append(verifyOps, st.verifyOps(verifyRequests/len(sessions))...)
	}
	if sessions == nil {
		for len(verifyOps) < verifyRequests {
			verifyOps = append(verifyOps, verifier.st.next())
		}
	}
	verify := &tally{}
	sendAll(ctx, verifier, verifyOps, verify)
	total.merge(verify)

	last, err := sampleProcs(dep.pids(""))
	if err != nil {
		return nil, err
	}
	m["rss_peak_mb"] = last.hwmMB

	var ld *ladder
	if cfg.trace && ctx.Err() == nil {
		ld = &ladder{ctx: ctx, wl: cfg.wl, sz: cfg.sz, lib: lib, seed: cfg.seed, work: work, t0: time.Now(),
			samples: map[string][]float64{}, metrics: m}
		defer ld.close()
		if err := ld.run(dep.front, int(math.Round(m["wal.bytes_per_op"]))); err != nil {
			return nil, fmt.Errorf("traced run: %w\n%s", err, stderrTails(dep))
		}
	}
	if err := context.Cause(ctx); err != nil {
		return nil, err
	}
	tails := stderrTails(dep)
	dep.stop()
	dep = nil

	// Reference check, after the daemons are gone so it shares no core with
	// anything timed.
	mismatches, firsts := check.checkAll(total.ingests, total.kept)
	for _, err := range firsts {
		fmt.Fprintln(cfg.log, "mismatch:", err)
	}
	fmt.Fprintf(cfg.log, "checked %d answers against the reference, %d mismatches\n", len(total.kept), mismatches)
	res.attempted = total.attempted
	res.failed = total.failed + mismatches
	if ld != nil {
		res.attempted += ld.attempted
		res.failed += ld.failed
		path := filepath.Join(cfg.out, "trace-"+cfg.wl.name+".json")
		if err := ld.writeTrace(path, cfg.seed, res.env); err != nil {
			return nil, err
		}
		fmt.Fprintf(cfg.log, "wrote %s (%d spans)\n", path, len(ld.spans))
	}
	m["bench.failed_share"] = float64(res.failed) / float64(res.attempted)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if _, ok := m[d.name]; !ok {
				m[d.name] = 0 // a layer this workload does not exercise, or the untraced run
			}
		}
	}
	if res.failed > 0 {
		fmt.Fprintln(cfg.log, tails)
	}
	return res, nil
}

// firstRequest completes set-up: one request answered through the front
// door, and for a cluster both workers connected.
func firstRequest(ctx context.Context, wl *workload, dep *deployment, c *client, t *tally) error {
	c.base = dep.front
	o := c.st.next()
	if _, ok := c.st.(*sessionStream); ok {
		// A session stream opens with an append, which creates its user.
		for o.kind != opUserAppend {
			o = c.st.next()
		}
	}
	t.attempted++
	if ok, _ := c.do(ctx, &o, false); !ok {
		t.failed++
		if err := context.Cause(ctx); err != nil {
			return err
		}
		return errors.New("the first request after set-up failed")
	}
	if wl.topo == topoCluster {
		ready, err := getJSON(ctx, dep.front+"/readyz")
		if err != nil {
			return err
		}
		if dig(ready, "connected") != 2 {
			return fmt.Errorf("coordinator reports %v of 2 workers connected after the first request", dig(ready, "connected"))
		}
	}
	return nil
}

// stderrTails returns the end of every child's captured stderr.
func stderrTails(dep *deployment) string {
	var b strings.Builder
	for _, c := range dep.children {
		b.WriteString(tail(c.stderr, 15))
		b.WriteByte('\n')
	}
	return b.String()
}

// observation is what can be seen of a deployment from outside at one
// instant: /proc, /v1/metrics and the store directory.
type observation struct {
	all, coordinator, worker procSample
	metrics                  map[string]any
	walBytes                 float64
	snapshots                float64
}

func observe(ctx context.Context, dep *deployment) (*observation, error) {
	o := &observation{}
	var err error
	if o.all, err = sampleProcs(dep.pids("")); err != nil {
		return nil, err
	}
	if len(dep.children) > 1 {
		if o.coordinator, err = sampleProcs(dep.pids("coordinator")); err != nil {
			return nil, err
		}
		if o.worker, err = sampleProcs(dep.pids("worker")); err != nil {
			return nil, err
		}
	}
	if o.metrics, err = getJSON(ctx, dep.front+"/v1/metrics"); err != nil {
		return nil, err
	}
	if dep.snapDir != "" {
		entries, err := os.ReadDir(dep.snapDir)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			switch {
			case strings.HasSuffix(e.Name(), ".wal"):
				if info, err := e.Info(); err == nil {
					o.walBytes += float64(info.Size())
				}
			case strings.HasPrefix(e.Name(), "snap-"):
				o.snapshots++
			}
		}
	}
	return o, nil
}

// sumCounters adds up every number of the JSON object of counters at path.
func sumCounters(v map[string]any, path ...string) float64 {
	total := 0.0
	if m, ok := walk(v, path...).(map[string]any); ok {
		for _, x := range m {
			if f, ok := x.(float64); ok {
				total += f
			}
		}
	}
	return total
}

// diff turns two observations around the timed phases, in which ops
// operations completed, into per-layer metrics.
func (b *observation) diff(a *observation, topo topology, ops float64, m map[string]float64) {
	if ops == 0 {
		return
	}
	delta := func(path ...string) float64 { return dig(a.metrics, path...) - dig(b.metrics, path...) }
	m["proc.cpu_ms_per_req"] = (a.all.cpuMs - b.all.cpuMs) / ops
	m["proc.ctxsw_per_req"] = (a.all.ctxsw - b.all.ctxsw) / ops
	m["server.requests"] = sumCounters(a.metrics, "requests") - sumCounters(b.metrics, "requests")
	m["server.errors"] = sumCounters(a.metrics, "errors") - sumCounters(b.metrics, "errors")
	m["server.sheds"] = delta("lifecycle", "sheds")
	m["goalrec.engine.epochs"] = delta("epoch")
	switch topo {
	case topoDurable:
		hits := delta("users", "counters", "hits")
		m["userstore.advances"] = delta("users", "counters", "advances")
		m["userstore.cold"] = delta("users", "counters", "cold")
		m["userstore.evictions"] = delta("users", "counters", "evictions")
		if looks := hits + m["userstore.advances"] + m["userstore.cold"] + delta("users", "counters", "rebuilds"); looks > 0 {
			m["userstore.view_hit_share"] = hits / looks
		}
		// Journaled writes: every appended action, every delete, every ingest.
		if writes := delta("users", "counters", "appends") + delta("users", "counters", "deletes") + m["goalrec.engine.epochs"]; writes > 0 {
			m["wal.bytes_per_op"] = (a.walBytes - b.walBytes) / writes
		}
		m["store.snapshots_written"] = a.snapshots - b.snapshots
		m["store.degradations"] = delta("storage", "status", "degradations")
	case topoCluster:
		m["proc.coordinator.cpu_ms_per_req"] = (a.coordinator.cpuMs - b.coordinator.cpuMs) / ops
		m["proc.worker.cpu_ms_per_req"] = (a.worker.cpuMs - b.worker.cpuMs) / ops
		m["cluster.scatters_per_req"] = delta("cluster", "scatters") / ops
		m["cluster.degraded_share"] = delta("cluster", "degraded_responses") / ops
		fast, all := 0.0, 0.0
		buckets := func(o *observation) map[string]float64 {
			out := map[string]float64{}
			block, _ := o.metrics["cluster"].(map[string]any)
			list, _ := block["fanout_latency_ms"].([]any)
			for _, x := range list {
				if bk, ok := x.(map[string]any); ok {
					le, _ := bk["le"].(string)
					out[le], _ = bk["count"].(float64)
				}
			}
			return out
		}
		bb, ab := buckets(b), buckets(a)
		for le, n := range ab {
			all += n - bb[le]
			if le == "1" || le == "2" || le == "5" {
				fast += n - bb[le]
			}
		}
		if all > 0 {
			m["cluster.fanout_le_5ms_share"] = fast / all
		}
	}
}
