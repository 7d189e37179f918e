package cluster

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"sort"
	"sync"
	"time"

	"goalrec"
	"goalrec/internal/comms"
	"goalrec/internal/core"
	"goalrec/internal/server"
	"goalrec/internal/strategy"
)

// dialTimeout bounds connecting and registering with a worker, each
// heartbeat probe and each swap abort or commit round trip.
const dialTimeout = 5 * time.Second

// dialWorker opens the TCP connection to a worker; tests replace it.
var dialWorker = (&net.Dialer{}).DialContext

// heartbeatInterval is how often StartHeartbeat probes every peer. Queries
// re-dial a dropped worker on their own; the heartbeat only refreshes epochs
// and picks a rejoined worker up before the next query does.
const heartbeatInterval = 2 * time.Second

// CoordinatorConfig configures the scatter-gather front end.
type CoordinatorConfig struct {
	// Peers are the workers' comms addresses. Together their ranges must
	// tile [0, NumImplementations) exactly.
	Peers []string
	// Reload re-reads the coordinator's own copy of the library for
	// two-phase swaps (the coordinator resolves names, so it must swap in
	// lockstep with the workers). Nil disables Reload.
	Reload func() (*goalrec.Library, error)
	// Logger may be nil.
	Logger *log.Logger
}

// Coordinator scatters queries across shard workers and merges the partials
// into rankings bit-identical to a single node serving the full library. It
// owns a full copy of the artifact (for name resolution and id rendering)
// but never scans it — scoring happens on the workers. It is a
// server.Backend: NewHTTPHandler puts the shared front end over it.
type Coordinator struct {
	engine  *goalrec.Engine
	cfg     CoordinatorConfig
	metrics *Metrics
	peers   []*peer

	// swapMu keeps every query off the swap window: a query holds it shared
	// from resolving its names until its merge is done, and Reload holds it
	// exclusively from its first commit until its own swap, so no query
	// gathers from workers on two epochs or merges at one epoch and renders
	// at another.
	swapMu sync.RWMutex
}

// peer is one worker endpoint with its lazily established, re-dialed-on-
// failure connection and the registration state the coordinator validated.
type peer struct {
	addr string

	mu    sync.Mutex
	conn  *comms.Conn
	lo    int
	hi    int
	impls int
	epoch uint64
}

// NewCoordinator builds a coordinator over engine (the coordinator's own
// full-library copy) and the configured workers.
func NewCoordinator(engine *goalrec.Engine, cfg CoordinatorConfig) *Coordinator {
	co := &Coordinator{
		engine:  engine,
		cfg:     cfg,
		metrics: newMetrics(len(cfg.Peers)),
	}
	for _, addr := range cfg.Peers {
		co.peers = append(co.peers, &peer{addr: addr})
	}
	return co
}

// Metrics exposes the scatter counters.
func (co *Coordinator) Metrics() *Metrics { return co.metrics }

// NewHTTPHandler puts the shared HTTP front end over co: the same server a
// single node runs, so clients and load balancers need no topology awareness.
// Request logging is off; co's logger is the error log.
func NewHTTPHandler(co *Coordinator) *server.Server {
	s := server.NewFromBackend(co, nil)
	s.SetErrorLog(co.cfg.Logger)
	return s
}

// Status implements server.Backend: /readyz gains "workers" and "connected"
// and says "degraded" while a worker is unreachable, /v1/metrics gains the
// "cluster" block, and a 5xx is logged with the coordinator's epoch and the
// one each worker last reported.
func (co *Coordinator) Status() server.Status {
	connected := co.Connected()
	return server.Status{
		Degraded: connected < len(co.peers),
		Ready:    map[string]any{"workers": len(co.peers), "connected": connected},
		Metrics:  map[string]any{"cluster": co.metrics.Snapshot(connected)},
		Detail:   fmt.Sprintf("coordinator epoch %d, worker epochs %v", co.Epoch(), co.peerEpochs()),
	}
}

// Epoch is the coordinator's own serving epoch (reported in responses).
func (co *Coordinator) Epoch() uint64 { return co.engine.Epoch() }

// Snapshot is the coordinator's current library copy.
func (co *Coordinator) Snapshot() *goalrec.Library { return co.engine.Snapshot() }

func (co *Coordinator) logf(format string, args ...interface{}) {
	if co.cfg.Logger != nil {
		co.cfg.Logger.Printf(format, args...)
	}
}

// Connected counts peers with a healthy registered connection.
func (co *Coordinator) Connected() int {
	n := 0
	for _, p := range co.peers {
		p.mu.Lock()
		if p.conn != nil && p.conn.Err() == nil {
			n++
		}
		p.mu.Unlock()
	}
	return n
}

// peerEpochs returns the epoch each worker last reported (at registration,
// a heartbeat or a swap), in -peers order.
func (co *Coordinator) peerEpochs() []uint64 {
	epochs := make([]uint64, len(co.peers))
	for i, p := range co.peers {
		p.mu.Lock()
		epochs[i] = p.epoch
		p.mu.Unlock()
	}
	return epochs
}

// Close drops every peer connection.
func (co *Coordinator) Close() {
	for _, p := range co.peers {
		p.mu.Lock()
		if p.conn != nil {
			p.conn.Close()
			p.conn = nil
		}
		p.mu.Unlock()
	}
}

// connect returns p's healthy connection, dialing and registering if
// needed. Registration validates the worker's vocabulary checksum against
// the coordinator's copy — a worker serving a different artifact would
// resolve scattered ids to different actions, so it is rejected here rather
// than detected as wrong results.
func (co *Coordinator) connect(p *peer) (*comms.Conn, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn != nil && p.conn.Err() == nil {
		return p.conn, nil
	}
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), dialTimeout)
	defer cancel()
	nc, err := dialWorker(ctx, "tcp", p.addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: dialing %s: %w", p.addr, err)
	}
	c := comms.NewConn(nc)
	f, err := c.Do(ctx, FrameRegister, nil)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("cluster: registering with %s: %w", p.addr, err)
	}
	var reg registerResponse
	if err := decodeResponse(f, &reg); err != nil {
		c.Close()
		return nil, fmt.Errorf("cluster: registering with %s: %w", p.addr, err)
	}
	if want := co.engine.Snapshot().VocabChecksum(); reg.Vocab != want {
		c.Close()
		return nil, fmt.Errorf("cluster: worker %s serves a different artifact or a goalrecd of another release (vocab %016x, coordinator %016x)",
			p.addr, reg.Vocab, want)
	}
	p.lo, p.hi, p.impls, p.epoch = reg.Lo, reg.Hi, reg.Impls, reg.Epoch
	p.conn = c
	co.logf("cluster: registered worker %s: range [%d, %d) of %d, epoch %d",
		p.addr, reg.Lo, reg.Hi, reg.Impls, reg.Epoch)
	return c, nil
}

// StartHeartbeat probes every peer every heartbeatInterval, refreshing epochs
// and re-establishing dropped connections so a rejoined worker is picked up
// without waiting for a query. The returned stop function is idempotent.
func (co *Coordinator) StartHeartbeat() (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(heartbeatInterval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
			for _, p := range co.peers {
				conn, err := co.connect(p)
				if err != nil {
					continue
				}
				hctx, hcancel := context.WithTimeout(ctx, dialTimeout)
				f, err := conn.Do(hctx, FrameHeartbeat, nil)
				hcancel()
				if err != nil {
					continue
				}
				var reg registerResponse
				if decodeResponse(f, &reg) == nil {
					p.mu.Lock()
					p.lo, p.hi, p.impls, p.epoch = reg.Lo, reg.Hi, reg.Impls, reg.Epoch
					p.mu.Unlock()
				}
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			cancel()
			<-done
		})
	}
}

// Result is one gathered, merged recommendation ranking; Degraded marks one
// merged without every shard.
type Result = server.Result

// gathered is one worker's scatter outcome.
type gathered struct {
	peer    *peer
	conn    *comms.Conn
	frame   comms.Frame
	err     error
	latency time.Duration
}

// scatter fans req out to the peers — all of them, or only those in only
// when it is non-nil — and gathers the responses.
func (co *Coordinator) scatter(ctx context.Context, typ uint8, payload []byte, only map[*peer]bool) []*gathered {
	co.metrics.scatters.Add(1)
	all := make([]*gathered, 0, len(co.peers))
	for _, p := range co.peers {
		if only != nil && !only[p] {
			continue
		}
		g := &gathered{peer: p}
		all = append(all, g)
		conn, err := co.connect(p)
		if err != nil {
			g.err = err
			continue
		}
		g.conn = conn
	}
	var wg sync.WaitGroup
	for _, g := range all {
		if g.err != nil {
			continue
		}
		wg.Add(1)
		go func(g *gathered) {
			defer wg.Done()
			t0 := time.Now()
			f, err := g.conn.Do(ctx, typ, payload)
			g.latency = time.Since(t0)
			co.metrics.observeFanout(g.latency)
			if err == nil && f.Type == FrameErr {
				err = decodeResponse(f, nil)
			}
			if err != nil {
				g.err = err
				return
			}
			g.frame = f
		}(g)
	}
	wg.Wait()
	return all
}

// partition splits scatter outcomes into successes and failures. The
// failures are counted and the successes served, flagged degraded; the
// query fails only when no shard answered.
func (co *Coordinator) partition(all []*gathered) (ok []*gathered, degraded bool, err error) {
	var failed []*gathered
	for _, g := range all {
		if g.err != nil {
			failed = append(failed, g)
		} else {
			ok = append(ok, g)
		}
	}
	if len(failed) == 0 {
		return ok, false, nil
	}
	for _, g := range failed {
		co.logf("cluster: shard %s failed: %v", g.peer.addr, g.err)
	}
	co.metrics.partialFailures.Add(int64(len(failed)))
	if len(ok) == 0 {
		co.metrics.failedQueries.Add(1)
		return nil, false, fmt.Errorf("cluster: %d of %d shards failed (first: %w)",
			len(failed), len(all), failed[0].err)
	}
	co.metrics.degradedResponses.Add(1)
	return ok, true, nil
}

// shardResponse is a worker's answer to a query frame: it names the epoch the
// shard served.
type shardResponse interface{ servedEpoch() uint64 }

// gather scatters one query round (see scatter), partitions the outcomes
// (see partition) and decodes every answer into a T, refusing answers from
// more than one epoch. okPeers are the shards that answered; all of resps
// share the epoch of resps[0].
func gather[T shardResponse](ctx context.Context, co *Coordinator, typ uint8, payload []byte, only map[*peer]bool) (resps []T, okPeers map[*peer]bool, degraded bool, err error) {
	ok, degraded, err := co.partition(co.scatter(ctx, typ, payload, only))
	if err != nil {
		return nil, nil, false, err
	}
	resps = make([]T, len(ok))
	epochs := make([]uint64, len(ok))
	okPeers = make(map[*peer]bool, len(ok))
	for i, g := range ok {
		if err := decodeResponse(g.frame, &resps[i]); err != nil {
			return nil, nil, false, err
		}
		epochs[i] = resps[i].servedEpoch()
		okPeers[g.peer] = true
	}
	if err := checkEpochs(epochs); err != nil {
		co.metrics.failedQueries.Add(1)
		return nil, nil, false, err
	}
	return resps, okPeers, degraded, nil
}

// checkEpochs verifies every answering shard served the same epoch. The
// merge is only sound over partitions of one library state; skew (e.g. a
// worker that restarted onto a different artifact between registration and
// now) fails the query even when every shard answered.
func checkEpochs(epochs []uint64) error {
	if len(epochs) == 0 {
		return nil
	}
	for _, e := range epochs[1:] {
		if e != epochs[0] {
			return fmt.Errorf("cluster: epoch skew across shards (%d vs %d); refusing to merge", epochs[0], e)
		}
	}
	return nil
}

// coverageError validates that the registered shard ranges tile the n
// implementations of the coordinator's library exactly. Run against the full
// peer set so a gap is reported even where a query would otherwise degrade
// around it.
func (co *Coordinator) coverageError(n int) error {
	type rng struct{ lo, hi int }
	ranges := make([]rng, 0, len(co.peers))
	for _, p := range co.peers {
		p.mu.Lock()
		if p.conn == nil {
			p.mu.Unlock()
			// Unregistered peer: its range is unknown; coverage is checked
			// against what registration reported, so skip — the scatter
			// itself reports the peer as failed.
			continue
		}
		ranges = append(ranges, rng{p.lo, p.hi})
		p.mu.Unlock()
	}
	if len(ranges) < len(co.peers) {
		return nil // partial registration: the scatter outcome governs
	}
	sort.Slice(ranges, func(i, j int) bool { return ranges[i].lo < ranges[j].lo })
	at := 0
	for _, r := range ranges {
		if r.lo != at {
			return fmt.Errorf("cluster: shard ranges do not tile the library: gap or overlap at %d (next range starts at %d)", at, r.lo)
		}
		at = r.hi
	}
	if at != n {
		return fmt.Errorf("cluster: shard ranges cover [0, %d) but the library has %d implementations", at, n)
	}
	return nil
}

// begin opens one query or batch, unless its context is already done: it
// resolves the strategy through goalrec.ResolveStrategy — exactly the names a
// single node accepts, down to the rejection bytes — primes the registrations,
// validates that the shard ranges tile the library, and takes the one snapshot
// every name of the request is resolved against. A client's mistake is a
// *goalrec.QueryError, a failure of the cluster a *server.BackendError.
func (co *Coordinator) begin(ctx context.Context, strategyName, metric string) (*goalrec.Library, goalrec.StrategySpec, error) {
	spec, err := goalrec.ResolveStrategy(strategyName, metric)
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, spec, err
	}
	for _, p := range co.peers {
		// Connection failures surface through the scatter, which degrades
		// around them; this only primes (or re-establishes) the
		// registrations so coverage can be validated.
		if _, err := co.connect(p); err != nil {
			co.logf("cluster: preconnect: %v", err)
		}
	}
	snap := co.engine.Snapshot()
	if err := co.coverageError(snap.NumImplementations()); err != nil {
		return nil, spec, &server.BackendError{Err: err}
	}
	return snap, spec, nil
}

// Recommend resolves the activity against the coordinator's copy, scatters
// it to every shard, and merges the partials into the single-node ranking.
func (co *Coordinator) Recommend(ctx context.Context, strategyName, metric string, activity []string, k int) (*Result, error) {
	co.swapMu.RLock()
	defer co.swapMu.RUnlock()
	snap, spec, err := co.begin(ctx, strategyName, metric)
	if err != nil {
		return nil, err
	}
	return co.recommendAt(ctx, snap, spec, activity, k)
}

// RecommendBatch implements server.Backend: coverage is validated once and
// every activity resolved against one snapshot, whose epoch the batch reports.
func (co *Coordinator) RecommendBatch(ctx context.Context, strategyName, metric string, activities [][]string, k int) (*server.BatchResult, error) {
	co.swapMu.RLock()
	defer co.swapMu.RUnlock()
	snap, spec, err := co.begin(ctx, strategyName, metric)
	if err != nil {
		return nil, err
	}
	batch := &server.BatchResult{Epoch: snap.Epoch(), Strategy: spec.Name, Items: make([]Result, len(activities))}
	for i, activity := range activities {
		res, err := co.recommendAt(ctx, snap, spec, activity, k)
		if err != nil {
			return nil, err
		}
		batch.Items[i] = *res
		batch.Degraded = batch.Degraded || res.Degraded
	}
	return batch, nil
}

// recommendAt answers one activity from snap.
func (co *Coordinator) recommendAt(ctx context.Context, snap *goalrec.Library, spec goalrec.StrategySpec, activity []string, k int) (*Result, error) {
	ids, unknown := snap.ResolveActivity(activity)
	var scored []strategy.ScoredAction
	var degraded bool
	var err error
	switch spec.Strategy {
	case goalrec.FocusCompleteness, goalrec.FocusCloseness:
		// The annotated-emission protocol streams exactly k emissions per
		// shard; a full ranking (k <= 0) has no cutoff to merge under.
		if k <= 0 {
			return nil, &goalrec.QueryError{Err: errors.New("cluster: focus strategies need k >= 1")}
		}
		measure := "cmp"
		if spec.Strategy == goalrec.FocusCloseness {
			measure = "cl"
		}
		scored, degraded, err = co.gatherFocus(ctx, measure, ids, k)
	case goalrec.Breadth:
		scored, degraded, err = co.gatherBreadth(ctx, ids, k)
	case goalrec.BestMatch:
		scored, degraded, err = co.gatherBestMatch(ctx, spec.Metric, ids, k)
	}
	if err != nil {
		return nil, &server.BackendError{Err: err}
	}
	res := &Result{Epoch: snap.Epoch(), Strategy: spec.Name, UnknownActions: unknown, Degraded: degraded,
		Recommendations: make([]goalrec.Recommendation, len(scored))}
	for i, s := range scored {
		res.Recommendations[i] = goalrec.Recommendation{Action: snap.ActionNameByID(s.Action), Score: s.Score}
	}
	return res, nil
}

// gatherFocus scatters a Focus query and merges the shards' top-k emission
// lists under the global emission order.
func (co *Coordinator) gatherFocus(ctx context.Context, measure string, ids []core.ActionID, k int) ([]strategy.ScoredAction, bool, error) {
	payload := mustJSON(focusRequest{Measure: measure, Activity: ids, K: k})
	resps, _, degraded, err := gather[focusResponse](ctx, co, FrameFocus, payload, nil)
	if err != nil {
		return nil, false, err
	}
	lists := make([][]strategy.FocusEmission, len(resps))
	for i, r := range resps {
		lists[i] = r.Emissions
	}
	return strategy.MergeFocusEmissions(lists, k), degraded, nil
}

// gatherBreadth scatters a Breadth query and folds the shards' integer
// partials. Sums of int64 comm terms are exact in any order, so the fold
// reproduces the single-node scores bit-identically.
func (co *Coordinator) gatherBreadth(ctx context.Context, ids []core.ActionID, k int) ([]strategy.ScoredAction, bool, error) {
	payload := mustJSON(breadthRequest{Activity: ids})
	resps, _, degraded, err := gather[breadthResponse](ctx, co, FrameBreadth, payload, nil)
	if err != nil {
		return nil, false, err
	}
	parts := make([]*strategy.BreadthPartial, len(resps))
	for i, r := range resps {
		parts[i] = r.Partial
	}
	return strategy.MergeBreadthPartials(parts, k), degraded, nil
}

// gatherBestMatch runs the two-round Best Match protocol: round one merges
// the shards' surveys into the global candidate set, goal space and integer
// profile; round two gathers each shard's candidate vectors restricted to
// that global goal space and reconstructs the exact distances from int64
// sums. Restricting vectors to the global space (not each shard's local
// one) is what keeps the norms and dot products equal to single-node.
func (co *Coordinator) gatherBestMatch(ctx context.Context, metric strategy.Metric, ids []core.ActionID, k int) ([]strategy.ScoredAction, bool, error) {
	surveyed, okPeers, degraded, err := gather[bmSurveyResponse](ctx, co, FrameBMSurvey, mustJSON(bmSurveyRequest{Activity: ids}), nil)
	if err != nil {
		return nil, false, err
	}
	surveys := make([]*strategy.BestMatchSurvey, len(surveyed))
	for i, r := range surveyed {
		surveys[i] = r.Survey
	}
	candidates, goalSpace, profile := strategy.MergeBestMatchSurveys(surveys)

	// Round two targets only the shards whose surveys are folded into the
	// global spaces; a shard that failed round one contributes to neither.
	vecPayload := mustJSON(bmVectorsRequest{Candidates: candidates, GoalSpace: goalSpace})
	vectored, _, degraded2, err := gather[bmVectorsResponse](ctx, co, FrameBMVectors, vecPayload, okPeers)
	if err != nil {
		return nil, false, err
	}
	// Both rounds must have served one epoch: a swap between them would
	// score round one's spaces against another library's vectors.
	if err := checkEpochs([]uint64{surveyed[0].Epoch, vectored[0].Epoch}); err != nil {
		co.metrics.failedQueries.Add(1)
		return nil, false, err
	}
	vectors := make([]*strategy.BestMatchVectors, len(vectored))
	for i, r := range vectored {
		vectors[i] = r.Vectors
	}
	return strategy.MergeBestMatchVectors(metric, candidates, goalSpace, profile, vectors, k),
		degraded || degraded2, nil
}

// Reload drives a cluster-wide two-phase snapshot swap: every worker stages
// its next epoch (prepare), and only when all of them hold a staged library
// that agrees on size and vocabulary does the coordinator commit the flip —
// otherwise every stage is aborted and the cluster keeps serving epoch E-1
// on all nodes. The coordinator swaps its own copy last, after the workers
// committed, so name resolution never runs ahead of the shards; no query runs
// between the first commit and that swap (swapMu).
func (co *Coordinator) Reload(ctx context.Context) (epoch uint64, implementations int, err error) {
	if co.cfg.Reload == nil {
		return 0, 0, server.ErrNoReloader
	}
	// Load the coordinator's own copy first: a broken artifact aborts the
	// swap before any worker is disturbed.
	lib, err := co.cfg.Reload()
	if err != nil {
		co.metrics.swapsAborted.Add(1)
		return 0, 0, fmt.Errorf("cluster: reloading coordinator copy: %w", err)
	}

	// Phase one: prepare every worker.
	all := co.scatter(ctx, FramePrepare, nil, nil)
	var prepared []*gathered
	var firstErr error
	wantVocab := lib.VocabChecksum()
	wantImpls := lib.NumImplementations()
	for _, g := range all {
		if g.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: prepare on %s: %w", g.peer.addr, g.err)
			}
			continue
		}
		var resp prepareResponse
		if err := decodeResponse(g.frame, &resp); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: prepare on %s: %w", g.peer.addr, err)
			}
			continue
		}
		if resp.Vocab != wantVocab || resp.Impls != wantImpls {
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: worker %s staged a different artifact or a goalrecd of another release answered (%d impls, vocab %016x; coordinator %d, %016x)",
					g.peer.addr, resp.Impls, resp.Vocab, wantImpls, wantVocab)
			}
			continue
		}
		prepared = append(prepared, g)
	}
	co.metrics.swapsPrepared.Add(1)
	if firstErr != nil || len(prepared) != len(all) {
		// Abort every successfully staged worker; the cluster keeps serving
		// the previous epoch everywhere.
		for _, g := range prepared {
			actx, acancel := context.WithTimeout(ctx, dialTimeout)
			if _, aerr := g.conn.Do(actx, FrameAbort, nil); aerr != nil {
				co.logf("cluster: abort on %s: %v", g.peer.addr, aerr)
			}
			acancel()
		}
		co.metrics.swapsAborted.Add(1)
		if firstErr == nil {
			firstErr = errors.New("cluster: prepare failed on an unreachable worker")
		}
		return 0, 0, firstErr
	}

	// Phase two: commit, with queries held off until the coordinator has
	// swapped too. A failure here is logged loudly but not rolled back —
	// committed workers already serve the new epoch, and the epoch guard on
	// every query refuses to merge across the skew until the stragglers are
	// retried (see the failure matrix in DESIGN.md).
	co.swapMu.Lock()
	var commitErr error
	var epochs []uint64
	for _, g := range prepared {
		cctx, ccancel := context.WithTimeout(ctx, dialTimeout)
		f, err := g.conn.Do(cctx, FrameCommit, nil)
		ccancel()
		if err == nil {
			var resp commitResponse
			if derr := decodeResponse(f, &resp); derr != nil {
				err = derr
			} else {
				epochs = append(epochs, resp.Epoch)
				// Refresh the registration state: an open-ended shard's
				// resolved range moves when the library grows or shrinks.
				g.peer.mu.Lock()
				g.peer.lo, g.peer.hi, g.peer.impls, g.peer.epoch = resp.Lo, resp.Hi, resp.Impls, resp.Epoch
				g.peer.mu.Unlock()
			}
		}
		if err != nil && commitErr == nil {
			commitErr = fmt.Errorf("cluster: commit on %s: %w", g.peer.addr, err)
		}
	}
	if commitErr != nil {
		co.swapMu.Unlock()
		co.logf("cluster: PARTIAL COMMIT — epoch skew until retried: %v", commitErr)
		return 0, 0, commitErr
	}
	swapped := co.engine.Swap(lib)
	co.swapMu.Unlock()
	co.metrics.swapsCommitted.Add(1)
	co.logf("cluster: committed two-phase swap: coordinator epoch %d, worker epochs %v", swapped.Epoch(), epochs)
	return swapped.Epoch(), wantImpls, nil
}
