package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"goalrec"
	"goalrec/internal/cluster"
	"goalrec/internal/comms"
	"goalrec/internal/core"
	"goalrec/internal/strategy"
	"goalrec/internal/wal"
)

// The traced run replays one request stream sequentially at successively
// deeper public entry points — the layer ladder. Every call is bracketed by
// a span recorded in memory by this file; nothing inside the program is
// instrumented. A layer's self time is its rung minus the next rung down.

// span is one timed call. Spans of one request share Req; Parent names the
// rung above, whose span with the same Req is the logical caller.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Req     int    `json:"req"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// warmups is how many requests each rung replays before timing.
const warmups = 100

// ladder carries the traced run's state.
type ladder struct {
	ctx   context.Context
	wl    *workload
	sz    sizes
	lib   *goalrec.Library
	seed  uint64
	work  string
	t0    time.Time
	spans []span

	samples   map[string][]float64 // rung name -> per-request µs
	metrics   map[string]float64
	negative  float64 // clamped negative self times, µs
	hitShare  float64 // share of the recommend rung's requests the cache answered
	attempted int
	failed    int

	snapPath string
	snaps    []*goalrec.Snapshot
}

// time runs fn, records its span when trace is set, and files the duration
// under name. Recording a span is inside the interval filed, so a traced
// sample carries what tracing costs and bench.trace_overhead_pct can see it.
func (l *ladder) time(name, parent string, req int, trace bool, fn func()) float64 {
	start := time.Now()
	fn()
	end := time.Now()
	if trace {
		l.spans = append(l.spans, span{name, parent, req, start.Sub(l.t0).Nanoseconds(), end.Sub(l.t0).Nanoseconds()})
		end = time.Now()
	}
	us := float64(end.Sub(start).Nanoseconds()) / 1e3
	l.samples[name] = append(l.samples[name], us)
	return us
}

// note books the outcome of one replayed call.
func (l *ladder) note(ok bool) {
	l.attempted++
	if !ok {
		l.failed++
	}
}

func (l *ladder) p50(name string) float64 { return median(l.samples[name]) }

// self is outer minus inner; a negative difference (the rungs were timed in
// separate passes) is clamped and accounted in bench.ladder_negative_us.
func (l *ladder) self(outer, inner float64) float64 {
	if d := outer - inner; d >= 0 {
		return d
	}
	l.negative += inner - outer
	return 0
}

// libraryCopy returns a private copy of the library, so an engine that
// ingests never shares a vocabulary with another. Copies are opened from one
// snapshot file, which is also what core.open_snapshot_ms times.
func (l *ladder) libraryCopy() (*goalrec.Library, error) {
	if l.snapPath == "" {
		l.snapPath = filepath.Join(l.work, "ladder.gsnp")
		if err := l.lib.SaveSnapshotFile(l.snapPath, false); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	snap, err := goalrec.OpenSnapshotFile(l.snapPath)
	if err != nil {
		return nil, err
	}
	if len(l.snaps) == 0 {
		l.metrics["core.open_snapshot_ms"] = float64(time.Since(start).Nanoseconds()) / 1e6
	}
	l.snaps = append(l.snaps, snap)
	return snap.Library(), nil
}

func (l *ladder) close() {
	for _, s := range l.snaps {
		s.Close()
	}
}

// kernelRung is the name of a strategy's kernel rung.
func kernelRung(s string) string { return "strategy.kernel." + s }

func newKernel(c *core.Library, s string) strategy.Recommender {
	switch s {
	case "focus-cmp":
		return strategy.NewFocus(c, strategy.Completeness)
	case "focus-cl":
		return strategy.NewFocus(c, strategy.Closeness)
	case "breadth":
		return strategy.NewBreadth(c)
	default:
		return strategy.NewBestMatch(c)
	}
}

var allStrategies = []string{"focus-cmp", "focus-cl", "breadth", "best-match"}

// seqRung replays ops on one connection to the live daemon, one request at a
// time: the top rung.
func (l *ladder) seqRung(base string, prefill, warm, ops []op) {
	c := newClient(base, nil)
	defer c.close()
	for _, set := range [][]op{prefill, warm} {
		for i := range set {
			ok, _ := c.do(l.ctx, &set[i], false)
			l.note(ok)
		}
	}
	for i := range ops {
		o := &ops[i]
		var ok bool
		us := l.time("client.seq."+o.kind.String(), "", i, true, func() { ok, _ = c.do(l.ctx, o, false) })
		l.note(ok)
		if o.isRecommend() {
			l.samples["client.seq"] = append(l.samples["client.seq"], us)
		}
	}
}

// serveRung replays ops through an in-process handler with a recorder in
// place of the socket. Span recording alternates on and off by request, which
// is what bench.trace_overhead_pct compares.
func (l *ladder) serveRung(name string, h http.Handler, prefill, warm, ops []op) {
	call := func(o *op) (*http.Request, *httptest.ResponseRecorder) {
		var req *http.Request
		if o.body != nil {
			req = httptest.NewRequest(o.method, o.path, bytes.NewReader(o.body))
		} else {
			req = httptest.NewRequest(o.method, o.path, nil)
		}
		return req.WithContext(l.ctx), httptest.NewRecorder()
	}
	for _, set := range [][]op{prefill, warm} {
		for i := range set {
			req, rec := call(&set[i])
			h.ServeHTTP(rec, req)
			l.note(rec.Code/100 == 2)
		}
	}
	for i := range ops {
		o := &ops[i]
		req, rec := call(o)
		traced := i%2 == 0
		us := l.time(name+"."+o.kind.String(), "client.seq."+o.kind.String(), i, traced, func() { h.ServeHTTP(rec, req) })
		l.note(rec.Code/100 == 2)
		if o.isRecommend() {
			l.samples[name] = append(l.samples[name], us)
			if traced {
				l.samples[name+".traced"] = append(l.samples[name+".traced"], us)
			} else {
				l.samples[name+".untraced"] = append(l.samples[name+".untraced"], us)
			}
		}
	}
}

// scored is the scoring part of an op: what the layers below HTTP see.
type scored struct {
	strategy string
	activity []string
}

func scoredOf(ops []op) []scored {
	var out []scored
	for i := range ops {
		if ops[i].isRecommend() {
			out = append(out, scored{ops[i].strategy, ops[i].activity})
		}
	}
	return out
}

func (s scored) key() string { return s.strategy + "\x00" + strings.Join(s.activity, ",") }

// recommenders builds one cached recommender per strategy, as a server
// bundle does.
func (l *ladder) recommenders() map[string]goalrec.Recommender {
	recs := map[string]goalrec.Recommender{}
	for _, s := range allStrategies {
		recs[s] = l.lib.MustRecommender(goalrec.Strategy(s), goalrec.WithDistanceMetric("cosine"), goalrec.WithCache(4096))
	}
	return recs
}

// recommendRungs times the root package's recommender the way the server
// calls it, in the cache state the serve rung saw, and then hits and misses
// apart.
func (l *ladder) recommendRungs(warm, reqs []scored) {
	recs := l.recommenders()
	seen := map[string]bool{}
	for _, w := range warm {
		_, _ = recs[w.strategy].RecommendContext(l.ctx, w.activity, k)
		seen[w.key()] = true
	}
	hits := 0
	for i, r := range reqs {
		name := "goalrec.recommend_miss"
		if seen[r.key()] {
			name = "goalrec.recommend_hit"
			hits++
		}
		seen[r.key()] = true
		us := l.time(name, "server.serve.recommend", i, true, func() {
			_, _ = recs[r.strategy].RecommendContext(l.ctx, r.activity, k)
		})
		l.samples["goalrec.recommend"] = append(l.samples["goalrec.recommend"], us)
	}
	l.hitShare = float64(hits) / float64(len(reqs))

	// Whichever class the replay left thin gets its own pass: the same
	// requests again are all hits; fresh recommenders make first sights
	// misses.
	if hits < len(reqs)/10 {
		for _, r := range reqs {
			l.time("goalrec.recommend_hit", "", -1, false, func() {
				_, _ = recs[r.strategy].RecommendContext(l.ctx, r.activity, k)
			})
		}
	}
	if len(reqs)-hits < len(reqs)/10 {
		fresh, first := l.recommenders(), map[string]bool{}
		for _, r := range reqs {
			if first[r.key()] {
				continue
			}
			first[r.key()] = true
			l.time("goalrec.recommend_miss", "", -1, false, func() {
				_, _ = fresh[r.strategy].RecommendContext(l.ctx, r.activity, k)
			})
		}
	}
}

// kernelRungs times name resolution and then every strategy's unpruned
// kernel on the resolved ids.
func (l *ladder) kernelRungs(reqs []scored) {
	ids := make([][]core.ActionID, len(reqs))
	for i, r := range reqs {
		l.time("goalrec.resolve", "goalrec.recommend", i, true, func() { ids[i], _ = l.lib.ResolveActivity(r.activity) })
	}
	for _, s := range allStrategies {
		rec := newKernel(l.lib.Core(), s)
		for i := 0; i < warmups && i < len(ids); i++ {
			_, _ = strategy.RecommendContext(l.ctx, rec, ids[i], k)
		}
		for i := range ids {
			l.time(kernelRung(s), "goalrec.recommend", i, s == l.wl.strategy, func() {
				_, _ = strategy.RecommendContext(l.ctx, rec, ids[i], k)
			})
		}
	}
}

// userRungs replays the session ops directly on a UserStore over a durable
// store, then times the layers under it: the counter view, the WAL writer
// and the engine's ingest.
func (l *ladder) userRungs(prefill, warm, ops []op, walRecord int) error {
	lib, err := l.libraryCopy()
	if err != nil {
		return err
	}
	dir := filepath.Join(l.work, "ladder-store")
	if err := os.Mkdir(dir, 0o755); err != nil {
		return err
	}
	store, err := goalrec.OpenStore(dir, goalrec.StoreOptions{})
	if err != nil {
		return err
	}
	defer store.Close()
	engine, users := store.Engine(), store.Users()
	engine.Swap(lib)
	if err := store.Err(); err != nil {
		return err
	}
	apply := func(o *op, i int, timed bool) {
		var err error
		run := func(name string, fn func()) {
			if timed {
				l.time(name, "server.serve."+o.kind.String(), i, true, fn)
			} else {
				fn()
			}
		}
		switch o.kind {
		case opUserAppend:
			run("goalrec.users.append", func() { _, err = users.Append(o.user, o.activity) })
		case opUserRecommend:
			run("goalrec.users.recommend", func() {
				_, err = users.Recommend(l.ctx, o.user, goalrec.Strategy(o.strategy), k, goalrec.WithDistanceMetric("cosine"))
			})
		case opUserDelete:
			run("goalrec.users.delete", func() { err = users.Delete(o.user) })
		case opIngest:
			run("goalrec.engine.ingest", func() { _, err = engine.AddImplementations(o.impls) })
		}
		l.note(err == nil)
	}
	for i := range prefill {
		apply(&prefill[i], -1, false)
	}
	for i := range warm {
		apply(&warm[i], -1, false)
	}
	for i := range ops {
		apply(&ops[i], i, true)
	}
	// The replay holds only a handful of ingests; time a run of them alone.
	ingests := l.wl.stream(l.seed, ladderClient+1, l.sz).(*sessionStream)
	for i := 0; i < 50; i++ {
		o := ingests.ingestOp()
		apply(&o, -1, true)
	}
	st := users.Stats()
	if st.Views > 0 {
		l.metrics["userstore.view_bytes_per_user"] = float64(st.ViewBytes) / float64(st.Views)
	}

	// Counter views: fold the newest action into a view of the rest, then
	// score the view with every strategy.
	c := l.lib.Core()
	kernels := map[string]strategy.Recommender{}
	for _, s := range allStrategies {
		kernels[s] = newKernel(c, s)
	}
	for i, r := range scoredOf(ops) {
		ids, _ := l.lib.ResolveActivity(r.activity)
		if len(ids) == 0 {
			continue
		}
		view := strategy.NewCounterView(c, ids[:len(ids)-1])
		l.time("strategy.view.apply", "goalrec.users.append", i, true, func() { view.Apply(ids[len(ids)-1]) })
		for _, s := range allStrategies {
			l.time("strategy.view."+s, "goalrec.users.recommend", i, s == l.wl.strategy, func() {
				_, _ = strategy.RecommendView(l.ctx, kernels[s], view, k)
			})
		}
	}

	// WAL: records of the size the daemon's journal grew by per write.
	w, err := wal.OpenWriter(filepath.Join(l.work, "ladder.wal"), 0, false)
	if err != nil {
		return err
	}
	record := make([]byte, walRecord)
	for i := 0; i < len(ops); i++ {
		l.time("wal.append", "goalrec.users.append", i, true, func() { err = w.Append(record) })
		l.note(err == nil)
	}
	return w.Close()
}

// clusterRungs times the scatter-gather path on in-process workers over
// loopback TCP, then its parts: shard partials, the merge and a bare comms
// round trip.
func (l *ladder) clusterRungs(warm, ops []op) error {
	cl, err := startInprocCluster(l.lib)
	if err != nil {
		return err
	}
	defer cl.stop()
	l.serveRung("cluster.http.serve", cluster.NewHTTPHandler(cl.co), nil, warm, ops)

	reqs := scoredOf(ops)
	recommend := func(name, strat string, n int) {
		for i := 0; i < n && i < len(reqs); i++ {
			l.time(name, "cluster.http.serve.recommend", i, true, func() {
				res, err := cl.co.Recommend(l.ctx, strat, "", reqs[i].activity, k)
				l.note(err == nil && !res.Degraded)
			})
		}
	}
	recommend("cluster.recommend", "breadth", len(reqs))
	// Low-rate probes of the strategies the timed phases leave out.
	recommend("cluster.best-match.recommend", "best-match", 20)
	recommend("cluster.focus-cmp.recommend", "focus-cmp", 200)

	half := l.lib.NumImplementations() / 2
	var shards []*strategy.Breadth
	for _, r := range [][2]int{{0, half}, {half, l.lib.NumImplementations()}} {
		part, err := l.lib.Partition(r[0], r[1])
		if err != nil {
			return err
		}
		shards = append(shards, strategy.NewBreadth(part.Core()))
	}
	for i, r := range reqs {
		ids, _ := l.lib.ResolveActivity(r.activity)
		parts := make([]*strategy.BreadthPartial, len(shards))
		slowest, entries := 0.0, 0
		for j, sh := range shards {
			us := l.time(fmt.Sprintf("strategy.partial.breadth.shard%d", j), "cluster.recommend", i, true, func() {
				parts[j], _ = sh.ShardPartial(l.ctx, ids)
			})
			if us > slowest {
				slowest = us
			}
			if parts[j] != nil {
				entries += len(parts[j].Actions)
			}
		}
		l.samples["strategy.partial.breadth"] = append(l.samples["strategy.partial.breadth"], slowest)
		l.samples["strategy.partial.breadth_entries"] = append(l.samples["strategy.partial.breadth_entries"], float64(entries))
		l.time("strategy.merge.breadth", "cluster.recommend", i, true, func() { strategy.MergeBreadthPartials(parts, k) })
	}
	return l.commsRung(len(reqs))
}

// commsRung echoes frames of two sizes against a comms.Server on loopback.
func (l *ladder) commsRung(n int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	echo := comms.NewServer(func(_ context.Context, _ *comms.ServerConn, f comms.Frame) (uint8, []byte) {
		return f.Type, f.Payload
	}, nil)
	go func() { _ = echo.Serve(ln) }() // returns when echo.Close closes ln
	defer echo.Close()
	conn, err := comms.Dial(ln.Addr().String())
	if err != nil {
		return err
	}
	defer conn.Close()
	for _, size := range []struct {
		name  string
		bytes int
	}{{"comms.rtt_64b", 64}, {"comms.rtt_64k", 64 << 10}} {
		payload := make([]byte, size.bytes)
		for i := -warmups; i < n; i++ {
			fn := func() {
				_, err := conn.Do(l.ctx, comms.TypeApp, payload)
				l.note(err == nil)
			}
			if i < 0 {
				fn()
			} else {
				l.time(size.name, "cluster.recommend", i, true, fn)
			}
		}
	}
	return nil
}

// run climbs down the ladder for the workload and derives the per-layer
// metrics. base is the live daemon's URL; walRecord the journal bytes one
// write cost there.
func (l *ladder) run(base string, walRecord int) error {
	prefill, warm, ops := ladderOps(l.wl, l.seed, l.sz)
	l.seqRung(base, prefill, warm, ops)

	inner := "goalrec.recommend" // what the HTTP handler calls for a scoring request
	if l.wl.topo == topoDurable {
		inner = "goalrec.users.recommend"
		lib, err := l.libraryCopy()
		if err != nil {
			return err
		}
		dir := filepath.Join(l.work, "ladder-serve-store")
		if err := os.Mkdir(dir, 0o755); err != nil {
			return err
		}
		api, store, err := newDurableNode(dir, lib)
		if err != nil {
			return err
		}
		l.serveRung("server.serve", api, prefill, warm, ops)
		store.Close()
	} else {
		// No ingests reach this node, so it may share the checker's library.
		api, _ := newSingleNode(l.lib)
		l.serveRung("server.serve", api, nil, warm, ops)
	}
	reqs := scoredOf(ops)
	l.recommendRungs(scoredOf(warm), reqs)
	l.kernelRungs(reqs)
	if _, err := l.libraryCopy(); err != nil { // times core.open_snapshot_ms on every workload
		return err
	}
	switch l.wl.topo {
	case topoDurable:
		if walRecord <= 0 {
			walRecord = 32
		}
		if err := l.userRungs(prefill, warm, ops, walRecord); err != nil {
			return err
		}
	case topoCluster:
		if err := l.clusterRungs(warm, ops); err != nil {
			return err
		}
	}
	if err := l.ctx.Err(); err != nil {
		return context.Cause(l.ctx)
	}
	l.derive(inner)
	return nil
}

// derive turns rung medians into the per-layer metrics.
func (l *ladder) derive(inner string) {
	m := l.metrics
	serve := sortedCopy(l.samples["server.serve"])
	serve50 := quantile(serve, 0.5)
	m["client.seq_p50_us"] = l.p50("client.seq")
	m["net.http_stack_us"] = l.self(m["client.seq_p50_us"], serve50)
	m["server.serve_p50_us"] = serve50
	m["server.serve_p99_us"] = quantile(serve, 0.99)
	m["server.self_us"] = l.self(serve50, l.p50(inner))
	if off := l.p50("server.serve.untraced"); off > 0 {
		m["bench.trace_overhead_pct"] = (l.p50("server.serve.traced") - off) / off * 100
	}

	rec := l.p50("goalrec.recommend")
	kernel := l.p50(kernelRung(l.wl.strategy))
	missShare := 1 - l.hitShare
	m["goalrec.recommend_us"] = rec
	m["goalrec.recommend_hit_us"] = l.p50("goalrec.recommend_hit")
	m["goalrec.recommend_miss_us"] = l.p50("goalrec.recommend_miss")
	m["goalrec.resolve_us"] = l.p50("goalrec.resolve")
	below := m["goalrec.resolve_us"]
	if missShare >= 0.5 { // the median request ran the kernel
		below += kernel
	}
	m["goalrec.self_us"] = l.self(rec, below)
	for _, s := range allStrategies {
		m["strategy.kernel."+s+"_us"] = l.p50(kernelRung(s))
	}
	if serve50 > 0 {
		m["strategy.kernel_share"] = missShare * kernel / serve50
	}

	if l.wl.topo == topoDurable {
		m["goalrec.users.append_us"] = l.p50("goalrec.users.append")
		m["goalrec.users.recommend_us"] = l.p50("goalrec.users.recommend")
		m["goalrec.users.delete_us"] = l.p50("goalrec.users.delete")
		m["goalrec.engine.ingest_us"] = l.p50("goalrec.engine.ingest")
		m["strategy.view.apply_us"] = l.p50("strategy.view.apply")
		for _, s := range allStrategies {
			m["strategy.view."+s+"_us"] = l.p50("strategy.view." + s)
		}
		m["wal.append_us"] = l.p50("wal.append")
		if serve50 > 0 { // the kernel of this workload is the view scorer
			m["strategy.kernel_share"] = l.p50("strategy.view."+l.wl.strategy) / serve50
		}
	}
	if l.wl.topo == topoCluster {
		m["cluster.http.serve_us"] = l.p50("cluster.http.serve")
		m["cluster.recommend_us"] = l.p50("cluster.recommend")
		m["cluster.http.self_us"] = l.self(m["cluster.http.serve_us"], m["cluster.recommend_us"])
		m["strategy.partial.breadth_us"] = l.p50("strategy.partial.breadth")
		m["strategy.partial.breadth_entries"] = l.p50("strategy.partial.breadth_entries")
		m["strategy.merge.breadth_us"] = l.p50("strategy.merge.breadth")
		m["comms.rtt_64b_us"] = l.p50("comms.rtt_64b")
		m["comms.rtt_64k_us"] = l.p50("comms.rtt_64k")
		// A scatter waits for its slower shard, one round trip and the merge.
		m["cluster.self_us"] = l.self(m["cluster.recommend_us"],
			m["strategy.partial.breadth_us"]+m["comms.rtt_64b_us"]+m["strategy.merge.breadth_us"])
		if base := m["strategy.kernel.breadth_us"]; base > 0 {
			m["cluster.tax_ratio"] = m["cluster.recommend_us"] / base
		}
		m["cluster.best-match.recommend_ms"] = l.p50("cluster.best-match.recommend") / 1e3
		m["cluster.focus-cmp.recommend_us"] = l.p50("cluster.focus-cmp.recommend")
	}
	m["bench.ladder_negative_us"] = l.negative
}

// ladderOps draws the traced run's requests: an optional prefill, the
// warm-ups and the n timed requests.
func ladderOps(wl *workload, seed uint64, sz sizes) (prefill, warm, ops []op) {
	st := wl.stream(seed, ladderClient, sz)
	if ss, ok := st.(*sessionStream); ok {
		prefill = ss.prefill()
	}
	if hs, ok := st.(*hotStream); ok {
		// The steady state being measured is the warm cache: the timed phases
		// run behind thousands of warm-up requests, so the ladder warms with
		// the whole pool once per strategy, not only with 100 requests.
		for _, s := range hotStrategies {
			for _, a := range hs.pool {
				warm = append(warm, recommendOp(s, a))
			}
		}
	}
	for i := 0; i < warmups; i++ {
		warm = append(warm, st.next())
	}
	for i := 0; i < wl.ladderN; i++ {
		ops = append(ops, st.next())
	}
	return prefill, warm, ops
}

// traceFile is what trace-<workload>.json holds.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Env      map[string]string  `json:"env"`
	Rungs    map[string]rungSum `json:"rungs"`
	Spans    []span             `json:"spans"`
}

type rungSum struct {
	N     int     `json:"n"`
	P50us float64 `json:"p50_us"`
	P99us float64 `json:"p99_us"`
}

func (l *ladder) writeTrace(path string, seed uint64, env map[string]string) error {
	tf := traceFile{Workload: l.wl.name, Seed: seed, Env: env, Rungs: map[string]rungSum{}, Spans: l.spans}
	for name, v := range l.samples {
		s := sortedCopy(v)
		tf.Rungs[name] = rungSum{N: len(s), P50us: quantile(s, 0.5), P99us: quantile(s, 0.99)}
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
