// Package server exposes a goal-implementation library as a JSON HTTP
// service: the shape a production deployment of the recommender takes.
//
// Endpoints:
//
//	GET  /healthz                     liveness probe
//	GET  /readyz                      readiness probe (503 while draining)
//	GET  /v1/stats                    library statistics
//	POST /v1/recommend                {"activity": [...], "strategy": "...", "k": N}
//	POST /v1/recommend/batch          {"activities": [[...], ...], "strategy": "...", "k": N}
//	POST /v1/spaces                   {"activity": [...]} → goal space with progress, action space
//	POST /v1/explain                  {"activity": [...], "action": "..."} → per-goal justification
//	POST /v1/implementations          {"implementations": [{"goal": ..., "actions": [...]}, ...]} live ingest
//	POST /v1/reload                   re-read the library source and swap it in
//	POST /v1/users/{id}/actions       {"actions": [...]} append to the user's stored history
//	GET  /v1/users/{id}/recommend     ?strategy=&metric=&k= score the stored history
//	DELETE /v1/users/{id}             forget the user and its history
//
// The user endpoints (enabled with WithUserStore, 501 otherwise) serve
// per-user state the server owns: each user's deduplicated activity history,
// at most goalrec.MaxActivityActions names. A recommend scores the stored
// history exactly as POSTing it to /v1/recommend would.
//
// The front end serves a Backend — the local engine of one node, or a
// cluster coordinator — and is the same server on both: routing, decoding,
// validation, deadlines, admission, panic recovery, accounting and the wire
// shapes live here once. A coordinator serves the recommendation, probe and
// reload endpoints; the rest need the local engine and are routed only on it.
//
// The server is epoch-based: a query is answered entirely from one snapshot
// of the backend, so it always sees one consistent epoch; ingests and reloads
// publish the next epoch without blocking in-flight queries. Every response
// carries the epoch it was answered from.
//
// The request lifecycle is hardened for production traffic (see DESIGN.md,
// "Request lifecycle & failure modes"): WithRequestTimeout bounds every
// request with a deadline (504 on expiry), the request context is
// propagated into the scoring loops so client disconnects abort queries
// mid-flight (499), and WithMaxInflight puts a bounded-concurrency
// admission gate in front of the expensive endpoints, shedding excess load
// as 503 + Retry-After after a short bounded wait.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"goalrec"
)

// maxBodyBytes bounds request bodies; activities and ingest batches are
// small relative to this.
const maxBodyBytes = 1 << 20

// statusClientClosedRequest is the nginx-convention status for a request
// aborted because the client went away; it is never seen by that client,
// but keeps the error accounting honest.
const statusClientClosedRequest = 499

// admissionWait is how long an over-limit request may wait for an
// admission slot before being shed. Short by design: queueing beyond a few
// request-times only converts overload into latency.
const admissionWait = 10 * time.Millisecond

// Backend is what the front end serves: the local engine of one node (built
// by New and NewFromEngine) or a cluster coordinator. Only what a topology
// does differently sits behind it.
type Backend interface {
	// Snapshot is the library copy the backend currently answers from: the
	// source of the reported epoch, /v1/stats and the "library" metrics block.
	Snapshot() *goalrec.Library
	// Recommend answers one query from one snapshot. Its errors are typed: a
	// *goalrec.QueryError for a request the client got wrong (400), the
	// context's error on expiry or disconnect (504/499), a *BackendError for
	// a failure behind the backend (502).
	Recommend(ctx context.Context, strategy, metric string, activity []string, k int) (*Result, error)
	// RecommendBatch answers every activity from the same snapshot, whose
	// epoch it reports. Any error fails the whole batch.
	RecommendBatch(ctx context.Context, strategy, metric string, activities [][]string, k int) (*BatchResult, error)
	// Reload re-reads the backend's library source and publishes it as the
	// next epoch, or returns ErrNoReloader. On failure the served epoch stays.
	Reload(ctx context.Context) (epoch uint64, implementations int, err error)
	// Status is what the backend adds to /readyz, /v1/metrics and the log
	// line of a 5xx.
	Status() Status
}

// Result is one answered query.
type Result struct {
	Epoch           uint64
	Strategy        string // canonical name, e.g. "best-match-jaccard"
	Recommendations []goalrec.Recommendation
	UnknownActions  []string
	// Degraded marks a ranking merged without every shard: exact over the
	// shards that answered, possibly missing the failed shard's actions.
	Degraded bool
}

// BatchResult is one answered batch: Items in input order, every one of them
// answered from the snapshot of epoch Epoch.
type BatchResult struct {
	Epoch    uint64
	Strategy string
	Items    []Result
	Degraded bool // some item is
}

// Status is a backend's contribution to the probes.
type Status struct {
	// Degraded turns /readyz's "ok" into "degraded" (still 200).
	Degraded bool
	// Ready is merged into the /readyz body, Metrics into /v1/metrics.
	Ready   map[string]any
	Metrics map[string]any
	// Detail closes the log line of a 5xx: the epochs the backend was at.
	Detail string
}

// BackendError marks a failure behind the backend rather than in the request
// or the front end — every shard down, epoch skew across shards — and is
// answered 502 with Err's message.
type BackendError struct{ Err error }

func (e *BackendError) Error() string { return e.Err.Error() }
func (e *BackendError) Unwrap() error { return e.Err }

// ErrNoReloader is Backend.Reload's answer when no library source is
// configured; /v1/reload maps it to 501.
var ErrNoReloader = errors.New("no reloader configured")

// localBackend is the single-node Backend: this node's engine. A query loads
// the engine's published epoch once and answers entirely from it, so whatever
// the engine publishes — an ingest, a reload, a cluster commit, by whichever
// path — is served on the next request.
type localBackend struct {
	engine *goalrec.Engine
	load   func() (*goalrec.Library, error)
}

func (b *localBackend) Snapshot() *goalrec.Library { return b.engine.Snapshot() }

// current returns the engine's current snapshot and its shared recommender
// for the strategy/metric pair, both from one load of the engine state.
// Serving workloads repeat activities heavily; strategies are deterministic
// over the immutable snapshot, so an LRU per recommender is sound — and it
// dies with its epoch, never serving a stale one.
func (b *localBackend) current(strategyName, metric string) (*goalrec.Library, goalrec.Recommender, error) {
	spec, err := goalrec.ResolveStrategy(strategyName, metric)
	if err != nil {
		return nil, nil, err
	}
	return b.engine.Current(spec.Strategy, goalrec.WithDistanceMetric(spec.Metric.String()), goalrec.WithCache(4096))
}

func (b *localBackend) Recommend(ctx context.Context, strategyName, metric string, activity []string, k int) (*Result, error) {
	lib, rec, err := b.current(strategyName, metric)
	if err != nil {
		return nil, err
	}
	list, err := rec.RecommendContext(ctx, activity, k)
	if err != nil {
		return nil, err
	}
	return &Result{
		Epoch:           lib.Epoch(),
		Strategy:        rec.Name(),
		Recommendations: list,
		UnknownActions:  lib.UnknownActions(activity),
	}, nil
}

// RecommendBatch resolves one snapshot and recommender for the whole batch
// and fans the activities out over the library's worker pool.
func (b *localBackend) RecommendBatch(ctx context.Context, strategyName, metric string, activities [][]string, k int) (*BatchResult, error) {
	lib, rec, err := b.current(strategyName, metric)
	if err != nil {
		return nil, err
	}
	res := &BatchResult{Epoch: lib.Epoch(), Strategy: rec.Name(), Items: make([]Result, len(activities))}
	for i, item := range rec.RecommendBatch(ctx, activities, k) {
		if item.Err != nil {
			return nil, item.Err
		}
		// The batch resolved every name once; its per-item unknown list is
		// authoritative, so no second vocabulary pass here.
		res.Items[i] = Result{Epoch: res.Epoch, Strategy: res.Strategy,
			Recommendations: item.Recommendations, UnknownActions: item.UnknownActions}
	}
	return res, nil
}

func (b *localBackend) Reload(context.Context) (uint64, int, error) {
	if b.load == nil {
		return 0, 0, ErrNoReloader
	}
	lib, err := b.load()
	if err != nil {
		return 0, 0, err
	}
	return b.engine.Swap(lib).Epoch(), lib.NumImplementations(), nil
}

// Status reports the epoch and, under "cache" in /v1/metrics, what the
// current epoch's response caches hold and have counted.
func (b *localBackend) Status() Status {
	return Status{
		Metrics: map[string]any{"cache": b.engine.CacheStats()},
		Detail:  fmt.Sprintf("epoch %d", b.Snapshot().Epoch()),
	}
}

// Option customizes a Server.
type Option func(*Server)

// WithReloader installs the loader /v1/reload invokes to re-read the
// library from its source of truth. Without one, /v1/reload answers 501.
// (A coordinator backend brings its own, cluster-wide reload.)
func WithReloader(load func() (*goalrec.Library, error)) Option {
	return func(s *Server) { s.reload = load }
}

// WithRequestTimeout bounds every request with a deadline. A request whose
// scoring outlives d is aborted mid-query and answered with a 504 whose
// body is {"error": "deadline exceeded"}. Zero (the default) disables the
// per-request deadline.
func WithRequestTimeout(d time.Duration) Option {
	return func(s *Server) { s.timeout = d }
}

// WithMaxInflight puts a bounded-concurrency admission gate in front of
// the expensive endpoints (recommend, spaces, explain, reload): at most n
// such requests run concurrently. An over-limit request waits briefly for
// a slot (up to admissionWait, 10ms) and is then shed as a 503 with a
// Retry-After header. n <= 0 (the default) disables the gate.
func WithMaxInflight(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.gate = make(chan struct{}, n)
		} else {
			s.gate = nil
		}
	}
}

// WithUserStore enables the /v1/users endpoints over us — typically
// Store.Users() so appends and deletes are journaled. Without it the user
// endpoints answer 501. The store's counters (users, appends, deletes,
// refusals at the user cap) appear under "users" in /v1/metrics.
func WithUserStore(us *goalrec.UserStore) Option {
	return func(s *Server) { s.users = us }
}

// WithStore surfaces the durable store's persistence health: /readyz and
// /v1/metrics gain a "storage" block (mode, last error, quarantined
// snapshots, scrub and prune counters), and /readyz reports "degraded" while
// the store is read-only — still 200, since reads keep serving.
func WithStore(st *goalrec.Store) Option {
	return func(s *Server) { s.store = st }
}

// Server is the HTTP front end over a Backend.
type Server struct {
	backend Backend
	// engine is this node's engine, nil over a coordinator: ingest, spaces,
	// explain and the user endpoints need it.
	engine *goalrec.Engine
	reload func() (*goalrec.Library, error) // WithReloader, handed to the local backend

	mux *http.ServeMux
	// log is the request log (nil disables it); errLog names every 5xx and
	// panic and defaults to log (see SetErrorLog).
	log    *log.Logger
	errLog *log.Logger

	// Request-lifecycle knobs (see WithRequestTimeout / WithMaxInflight).
	timeout time.Duration
	gate    chan struct{}

	// users is non-nil iff WithUserStore: the per-user history store behind
	// the /v1/users endpoints.
	users *goalrec.UserStore

	// store is non-nil iff WithStore: the durable store whose persistence
	// health /readyz and /v1/metrics surface.
	store *goalrec.Store

	// draining flips when the process has been told to shut down; /readyz
	// reports 503 so load balancers stop routing here while in-flight
	// requests finish.
	draining atomic.Bool

	// reloadStreak counts consecutive reload failures; any successful
	// reload resets it. Surfaced in /readyz and /v1/metrics.
	reloadStreak atomic.Int64

	// start is the start block, frozen by startOnce at the first /readyz
	// that answers 200; nil until then.
	startOnce sync.Once
	start     atomic.Pointer[startBlock]

	// Operational counters, per instance (kept off the global expvar
	// registry so multiple servers can coexist in one process).
	requests  *expvar.Map
	errors    *expvar.Map
	lifecycle *expvar.Map // sheds, canceled, deadline_exceeded, reload_failures
}

// New returns a Server seeded with lib as its first epoch. logger may be
// nil to disable request logging.
func New(lib *goalrec.Library, logger *log.Logger, opts ...Option) *Server {
	return NewFromEngine(goalrec.NewEngineFromLibrary(lib), logger, opts...)
}

// NewFromEngine returns a Server that serves an existing engine — typically
// one recovered by goalrec.OpenStore, whose ingests are already journaled.
// The server starts at whatever epoch the engine currently publishes.
func NewFromEngine(engine *goalrec.Engine, logger *log.Logger, opts ...Option) *Server {
	local := &localBackend{engine: engine}
	s := NewFromBackend(local, logger, opts...)
	s.engine, local.load = engine, s.reload
	s.mux.HandleFunc("POST /v1/spaces", s.counted("spaces", s.gated("spaces", s.handleSpaces)))
	s.mux.HandleFunc("POST /v1/explain", s.counted("explain", s.gated("explain", s.handleExplain)))
	s.mux.HandleFunc("POST /v1/implementations", s.counted("implementations", s.handleIngest))
	s.mux.HandleFunc("POST /v1/users/{id}/actions", s.counted("user_append", s.gated("user_append", s.handleUserAppend)))
	s.mux.HandleFunc("GET /v1/users/{id}/recommend", s.counted("user_recommend", s.gated("user_recommend", s.handleUserRecommend)))
	s.mux.HandleFunc("DELETE /v1/users/{id}", s.counted("user_delete", s.handleUserDelete))
	return s
}

// NewFromBackend returns the same front end over any Backend — a cluster
// coordinator — with the endpoints every backend can answer: the probes,
// stats, metrics, recommend, batch and reload.
func NewFromBackend(b Backend, logger *log.Logger, opts ...Option) *Server {
	s := &Server{
		backend:   b,
		mux:       http.NewServeMux(),
		log:       logger,
		errLog:    logger,
		requests:  new(expvar.Map).Init(),
		errors:    new(expvar.Map).Init(),
		lifecycle: new(expvar.Map).Init(),
	}
	// Pre-seed the lifecycle counters so /v1/metrics always reports them,
	// even at zero — dashboards should not have to handle absent keys.
	for _, key := range []string{"sheds", "canceled", "deadline_exceeded", "reload_failures"} {
		s.lifecycle.Add(key, 0)
	}
	for _, opt := range opts {
		opt(s)
	}
	s.mux.HandleFunc("GET /healthz", s.counted("healthz", s.handleHealth))
	s.mux.HandleFunc("GET /readyz", s.counted("readyz", s.handleReady))
	s.mux.HandleFunc("GET /v1/stats", s.counted("stats", s.handleStats))
	s.mux.HandleFunc("POST /v1/recommend", s.counted("recommend", s.gated("recommend", s.handleRecommend)))
	s.mux.HandleFunc("POST /v1/recommend/batch", s.counted("recommend_batch", s.gated("recommend_batch", s.handleRecommendBatch)))
	s.mux.HandleFunc("POST /v1/reload", s.counted("reload", s.gated("reload", s.handleReload)))
	s.mux.HandleFunc("GET /v1/metrics", s.counted("metrics", s.handleMetrics))
	return s
}

// SetErrorLog directs the error log — one line per 5xx answered, with its
// cause and the backend's epochs, and every recovered panic — to l. It is not
// the request log: by default it shares New's logger, and a daemon that
// silences request logging keeps it by setting it here, before serving.
func (s *Server) SetErrorLog(l *log.Logger) { s.errLog = l }

// Epoch returns the epoch the server currently answers from.
func (s *Server) Epoch() uint64 { return s.backend.Snapshot().Epoch() }

// Reload has the backend re-read its library source and publish the next
// epoch: the one path behind /v1/reload and an external watch loop. A failure
// leaves the served epoch in place and grows the consecutive-failure streak
// that /readyz and /v1/metrics report; a success resets it.
func (s *Server) Reload(ctx context.Context) (epoch uint64, implementations int, err error) {
	epoch, implementations, err = s.backend.Reload(ctx)
	switch {
	case errors.Is(err, ErrNoReloader):
	case err != nil:
		s.lifecycle.Add("reload_failures", 1)
		s.reloadStreak.Add(1)
	default:
		s.reloadStreak.Store(0)
	}
	return epoch, implementations, err
}

// ReloadFailureStreak returns the current consecutive reload-failure
// streak.
func (s *Server) ReloadFailureStreak() int64 { return s.reloadStreak.Load() }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// SetDraining marks the server as (not) draining. While draining, /readyz
// answers 503 so load balancers route new traffic elsewhere; everything
// else keeps serving so in-flight and straggler requests complete.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// counted wraps a handler with per-endpoint request accounting, the
// optional per-request deadline, and panic recovery: a panicking handler
// is logged with its stack and answered with a JSON 500 (when nothing has
// been written yet) instead of killing the daemon's connection serving.
func (s *Server) counted(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(name, 1)
		if s.timeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			if rec := recover(); rec != nil {
				s.errors.Add(name, 1)
				if s.errLog != nil {
					s.errLog.Printf("server: panic in %s: %v\n%s", name, rec, debug.Stack())
				}
				if !sw.wrote {
					s.writeError(sw, http.StatusInternalServerError, "internal error")
				}
				return
			}
			if sw.status >= 400 {
				s.errors.Add(name, 1)
			}
		}()
		h(sw, r)
	}
}

// gated wraps an expensive handler with the admission gate. Without
// WithMaxInflight the wrapper is free. Over the limit, the request waits
// up to admissionWait for a slot — giving up early if the client hangs up — and
// is then shed: 503 plus a Retry-After so well-behaved clients back off
// instead of hammering. Sheds are counted, not named in the error log: under
// overload that log would be one line per refused request.
func (s *Server) gated(name string, h http.HandlerFunc) http.HandlerFunc {
	if s.gate == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.gate <- struct{}{}:
		default:
			t := time.NewTimer(admissionWait)
			defer t.Stop()
			select {
			case s.gate <- struct{}{}:
			case <-t.C:
				s.logf("server: shedding %s (inflight limit %d)", name, cap(s.gate))
				s.shed(w)
				return
			case <-r.Context().Done():
				s.shed(w)
				return
			}
		}
		defer func() { <-s.gate }()
		h(w, r)
	}
}

func (s *Server) shed(w http.ResponseWriter) {
	s.lifecycle.Add("sheds", 1)
	w.Header().Set("Retry-After", "1")
	s.writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "overloaded, retry later"})
}

// statusWriter records the response status and whether anything was
// written, for error accounting and panic recovery.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(p)
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.log != nil {
		s.log.Printf(format, args...)
	}
}

// errorResponse is the JSON error envelope.
type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.logf("server: encoding response: %v", err)
	}
}

// writeError answers with an error body. Every 5xx is also named in the
// error log — status, cause and the epochs the backend was at (for a
// coordinator: its own and the one each worker last reported) — so a failed
// request can be explained from the running system.
func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	msg := fmt.Sprintf(format, args...)
	if status >= 500 && s.errLog != nil {
		s.errLog.Printf("server: answering %d: %s (%s)", status, msg, s.backend.Status().Detail)
	}
	s.writeJSON(w, status, errorResponse{Error: msg})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]interface{}{
		"status": "ok",
		"epoch":  s.Epoch(),
	})
}

// handleReady is the readiness probe: 503 while draining (so load
// balancers stop routing here during shutdown), 200 otherwise. It also
// surfaces the reload-failure streak — a persistently failing reload means
// the instance is serving an increasingly stale epoch, which operators
// want visible even while the instance stays ready.
// It reports "degraded" (still 200 — reads keep serving) while the backend
// says so (a coordinator missing workers) or, with a "storage" block, while a
// WithStore store is read-only.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	code := http.StatusOK
	st := s.backend.Status()
	resp := map[string]interface{}{
		"epoch":                 s.Epoch(),
		"reload_failure_streak": s.reloadStreak.Load(),
	}
	for key, v := range st.Ready {
		resp[key] = v
	}
	if st.Degraded {
		status = "degraded"
	}
	if p := s.storagePayload(); p != nil {
		resp["storage"] = p
		if p.Mode != goalrec.StorageHealthy {
			status = "degraded"
		}
	}
	if s.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	resp["status"] = status
	if code == http.StatusOK {
		s.startOnce.Do(func() { s.start.Store(readStart()) })
	}
	s.writeJSON(w, code, resp)
}

// storageStatusPayload mirrors goalrec.StorageStatus with wire-friendly
// names.
type storageStatusPayload struct {
	Mode          string   `json:"mode"`
	LastError     string   `json:"last_error,omitempty"`
	Quarantined   []string `json:"quarantined"`
	PruneFailures uint64   `json:"prune_failures"`
	Degradations  uint64   `json:"degradations"`
	Recoveries    uint64   `json:"recoveries"`
	ScrubPasses   uint64   `json:"scrub_passes"`
	ScrubFailures uint64   `json:"scrub_failures"`
	WALTears      uint64   `json:"wal_tears"`
}

// storagePayload snapshots the store's health, nil without WithStore.
func (s *Server) storagePayload() *storageStatusPayload {
	if s.store == nil {
		return nil
	}
	st := s.store.Status()
	q := st.Quarantined
	if q == nil {
		q = []string{}
	}
	return &storageStatusPayload{
		Mode:          st.Mode,
		LastError:     st.LastError,
		Quarantined:   q,
		PruneFailures: st.PruneFailures,
		Degradations:  st.Degradations,
		Recoveries:    st.Recoveries,
		ScrubPasses:   st.ScrubPasses,
		ScrubFailures: st.ScrubFailures,
		WALTears:      st.WALTears,
	}
}

// statsResponse mirrors goalrec.Stats with wire-friendly names.
type statsResponse struct {
	Epoch           uint64  `json:"epoch"`
	Implementations int     `json:"implementations"`
	Actions         int     `json:"actions"`
	Goals           int     `json:"goals"`
	AvgImplLen      float64 `json:"avg_implementation_len"`
	Connectivity    float64 `json:"connectivity"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	lib := s.backend.Snapshot()
	st := lib.Stats()
	s.writeJSON(w, http.StatusOK, statsResponse{
		Epoch:           lib.Epoch(),
		Implementations: st.Implementations,
		Actions:         st.Actions,
		Goals:           st.Goals,
		AvgImplLen:      st.AvgImplLen,
		Connectivity:    st.Connectivity,
	})
}

// countersBlock is the {"enabled", "counters"} shape of an optional
// subsystem's metrics.
type countersBlock struct {
	Enabled  bool `json:"enabled"`
	Counters any  `json:"counters"`
}

// metricsBody is the /v1/metrics reply, less the blocks the backend adds
// ("cluster" on a coordinator).
type metricsBody struct {
	Epoch     uint64          `json:"epoch"`
	Requests  json.RawMessage `json:"requests"`
	Errors    json.RawMessage `json:"errors"`
	Lifecycle json.RawMessage `json:"lifecycle"`
	Users     countersBlock   `json:"users"`
	Storage   struct {
		Enabled bool                  `json:"enabled"`
		Status  *storageStatusPayload `json:"status,omitempty"`
	} `json:"storage"`
	// Library is what backs the served library: mapped or heap, bytes per
	// index structure, the process's mappings and the last sidecar decision.
	Library             goalrec.LibraryBacking `json:"library"`
	ReloadFailureStreak int64                  `json:"reload_failure_streak"`
	// IO is the process's snapshot and source I/O so far; Start is what it
	// had done when /readyz first answered 200, null before.
	IO    goalrec.IOStats `json:"io"`
	Start *startBlock     `json:"start"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	lib := s.backend.Snapshot()
	m := metricsBody{
		Epoch:               lib.Epoch(),
		Requests:            json.RawMessage(s.requests.String()),
		Errors:              json.RawMessage(s.errors.String()),
		Lifecycle:           json.RawMessage(s.lifecycle.String()),
		Users:               countersBlock{false, struct{}{}},
		Library:             lib.Backing(),
		ReloadFailureStreak: s.reloadStreak.Load(),
		IO:                  goalrec.ReadIOStats(),
		Start:               s.start.Load(),
	}
	if s.users != nil {
		m.Users = countersBlock{true, s.users.Stats()}
	}
	if p := s.storagePayload(); p != nil {
		m.Storage.Enabled, m.Storage.Status = true, p
	}
	body, err := json.Marshal(m)
	if blocks := s.backend.Status().Metrics; err == nil && len(blocks) > 0 {
		var extra []byte
		if extra, err = json.Marshal(blocks); err == nil {
			// The backend's blocks close the object: two JSON objects become
			// one by dropping the first's '}' and the second's '{'.
			body = append(append(body[:len(body)-1], ','), extra[1:]...)
		}
	}
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "encoding metrics: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
}

// recommendRequest is the /v1/recommend body.
type recommendRequest struct {
	Activity []string `json:"activity"`
	Strategy string   `json:"strategy"` // default "breadth"
	Metric   string   `json:"metric"`   // best-match distance, default "cosine"
	K        int      `json:"k"`        // default 10
}

// recommendResponse is the reply of /v1/recommend and of the user recommend
// endpoint. UnknownActions lists the activity's actions the served epoch
// cannot resolve (and therefore ignored) — without it, a typo in an action
// name is indistinguishable from an action that merely scores low.
type recommendResponse struct {
	Epoch           uint64                  `json:"epoch"`
	Strategy        string                  `json:"strategy"`
	Recommendations []recommendationPayload `json:"recommendations"`
	UnknownActions  []string                `json:"unknown_actions,omitempty"`
	Degraded        bool                    `json:"degraded,omitempty"`
}

type recommendationPayload struct {
	Action string  `json:"action"`
	Score  float64 `json:"score"`
}

func payloads(list []goalrec.Recommendation) []recommendationPayload {
	out := make([]recommendationPayload, len(list))
	for i, rcm := range list {
		out[i] = recommendationPayload{Action: rcm.Action, Score: rcm.Score}
	}
	return out
}

func (s *Server) decode(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return false
	}
	return true
}

// validActivity enforces the shared activity bounds: non-empty and at most
// goalrec.MaxActivityActions actions. It writes the 400 itself on violation.
func (s *Server) validActivity(w http.ResponseWriter, activity []string) bool {
	if len(activity) == 0 {
		s.writeError(w, http.StatusBadRequest, "activity must not be empty")
		return false
	}
	if len(activity) > goalrec.MaxActivityActions {
		s.writeError(w, http.StatusBadRequest,
			"activity too long: %d actions (limit %d)", len(activity), goalrec.MaxActivityActions)
		return false
	}
	return true
}

// validK defaults an absent k to 10 and enforces [1, 1000], writing the 400
// itself on violation.
func (s *Server) validK(w http.ResponseWriter, k *int) bool {
	if *k == 0 {
		*k = 10
	}
	if *k < 0 || *k > 1000 {
		s.writeError(w, http.StatusBadRequest, "k must be in [1, 1000]")
		return false
	}
	return true
}

// writeQueryError maps a failed query onto the wire by the error's type: 504
// {"error": "deadline exceeded"} when the request deadline ran out and 499
// (client closed request) when the client hung up — each bumping its
// lifecycle counter — 400 for a *goalrec.QueryError, 502 for a *BackendError,
// 500 for anything else.
func (s *Server) writeQueryError(w http.ResponseWriter, endpoint string, err error) {
	var query *goalrec.QueryError
	var backend *BackendError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.lifecycle.Add("deadline_exceeded", 1)
		s.logf("server: %s hit the request deadline", endpoint)
		s.writeError(w, http.StatusGatewayTimeout, "deadline exceeded")
	case errors.Is(err, context.Canceled):
		s.lifecycle.Add("canceled", 1)
		s.logf("server: %s canceled by the client", endpoint)
		s.writeError(w, statusClientClosedRequest, "client closed request")
	case errors.As(err, &query):
		s.writeError(w, http.StatusBadRequest, "%v", err)
	case errors.As(err, &backend):
		s.writeError(w, http.StatusBadGateway, "%v", err)
	default:
		s.writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	var req recommendRequest
	if !s.decode(w, r, &req) || !s.validActivity(w, req.Activity) || !s.validK(w, &req.K) {
		return
	}
	res, err := s.backend.Recommend(r.Context(), req.Strategy, req.Metric, req.Activity, req.K)
	if err != nil {
		s.writeQueryError(w, "recommend", err)
		return
	}
	s.logf("recommend strategy=%s k=%d activity=%d results=%d epoch=%d",
		res.Strategy, req.K, len(req.Activity), len(res.Recommendations), res.Epoch)
	s.writeJSON(w, http.StatusOK, recommendResponse{
		Epoch:           res.Epoch,
		Strategy:        res.Strategy,
		Recommendations: payloads(res.Recommendations),
		UnknownActions:  res.UnknownActions,
		Degraded:        res.Degraded,
	})
}

// maxBatchActivities bounds how many activities one batch request may
// carry; a batch occupies one admission slot, so an unbounded batch would
// let a single request monopolize the gate.
const maxBatchActivities = 256

// batchRecommendRequest is the /v1/recommend/batch body: one strategy and k
// applied to many activities.
type batchRecommendRequest struct {
	Activities [][]string `json:"activities"`
	Strategy   string     `json:"strategy"` // default "breadth"
	Metric     string     `json:"metric"`   // best-match distance, default "cosine"
	K          int        `json:"k"`        // default 10
}

// batchItemPayload is one activity's outcome, in input order. An invalid
// activity gets a per-item error while the rest of the batch still scores.
type batchItemPayload struct {
	Recommendations []recommendationPayload `json:"recommendations"`
	UnknownActions  []string                `json:"unknown_actions,omitempty"`
	Error           string                  `json:"error,omitempty"`
}

// batchRecommendResponse is the /v1/recommend/batch reply. Every item was
// answered from the same snapshot: Epoch is the epoch of the whole batch.
type batchRecommendResponse struct {
	Epoch    uint64             `json:"epoch"`
	Strategy string             `json:"strategy"`
	Results  []batchItemPayload `json:"results"`
	Degraded bool               `json:"degraded,omitempty"`
}

// handleRecommendBatch scores many activities in one request: the body is
// decoded once and the backend answers the whole batch from one snapshot —
// all under this request's single admission slot and deadline. Per-item
// validation failures are reported per item; a deadline, disconnect or
// backend failure mid-batch fails the whole request, since the remaining
// items can no longer be answered consistently.
func (s *Server) handleRecommendBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRecommendRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Activities) == 0 {
		s.writeError(w, http.StatusBadRequest, "activities must not be empty")
		return
	}
	if len(req.Activities) > maxBatchActivities {
		s.writeError(w, http.StatusBadRequest,
			"too many activities: %d (limit %d)", len(req.Activities), maxBatchActivities)
		return
	}
	if !s.validK(w, &req.K) {
		return
	}

	results := make([]batchItemPayload, len(req.Activities))
	scorable := make([]int, 0, len(req.Activities))
	batch := make([][]string, 0, len(req.Activities))
	for i, activity := range req.Activities {
		switch {
		case len(activity) == 0:
			results[i].Error = "activity must not be empty"
		case len(activity) > goalrec.MaxActivityActions:
			results[i].Error = fmt.Sprintf("activity too long: %d actions (limit %d)",
				len(activity), goalrec.MaxActivityActions)
		default:
			scorable = append(scorable, i)
			batch = append(batch, activity)
		}
	}
	res, err := s.backend.RecommendBatch(r.Context(), req.Strategy, req.Metric, batch, req.K)
	if err != nil {
		s.writeQueryError(w, "recommend/batch", err)
		return
	}
	for j, item := range res.Items {
		results[scorable[j]].Recommendations = payloads(item.Recommendations)
		results[scorable[j]].UnknownActions = item.UnknownActions
	}
	s.logf("recommend/batch strategy=%s k=%d activities=%d epoch=%d",
		res.Strategy, req.K, len(req.Activities), res.Epoch)
	s.writeJSON(w, http.StatusOK, batchRecommendResponse{
		Epoch: res.Epoch, Strategy: res.Strategy, Results: results, Degraded: res.Degraded,
	})
}

// spacesRequest is the /v1/spaces body.
type spacesRequest struct {
	Activity []string `json:"activity"`
}

// spacesResponse reports the goal space (with progress) and action space of
// an activity, plus the activity actions unknown to the served epoch.
type spacesResponse struct {
	Epoch          uint64                `json:"epoch"`
	Goals          []goalProgressPayload `json:"goals"`
	Actions        []string              `json:"actions"`
	UnknownActions []string              `json:"unknown_actions,omitempty"`
}

type goalProgressPayload struct {
	Goal     string  `json:"goal"`
	Progress float64 `json:"progress"`
}

func (s *Server) handleSpaces(w http.ResponseWriter, r *http.Request) {
	var req spacesRequest
	if !s.decode(w, r, &req) {
		return
	}
	if !s.validActivity(w, req.Activity) {
		return
	}
	if err := r.Context().Err(); err != nil {
		s.writeQueryError(w, "spaces", err)
		return
	}
	lib := s.engine.Snapshot()
	progress := lib.GoalProgress(req.Activity)
	goals := lib.GoalSpace(req.Activity)
	resp := spacesResponse{
		Epoch:          lib.Epoch(),
		Goals:          make([]goalProgressPayload, len(goals)),
		Actions:        lib.ActionSpace(req.Activity),
		UnknownActions: lib.UnknownActions(req.Activity),
	}
	for i, g := range goals {
		resp.Goals[i] = goalProgressPayload{Goal: g, Progress: progress[g]}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// explainRequest is the /v1/explain body.
type explainRequest struct {
	Activity []string `json:"activity"`
	Action   string   `json:"action"`
}

// explainResponse lists the goals justifying the action.
type explainResponse struct {
	Epoch        uint64               `json:"epoch"`
	Explanations []explanationPayload `json:"explanations"`
}

type explanationPayload struct {
	Goal            string  `json:"goal"`
	Implementations int     `json:"implementations"`
	ProgressBefore  float64 `json:"progress_before"`
	ProgressAfter   float64 `json:"progress_after"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req explainRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Action == "" {
		s.writeError(w, http.StatusBadRequest, "activity and action are required")
		return
	}
	if !s.validActivity(w, req.Activity) {
		return
	}
	if err := r.Context().Err(); err != nil {
		s.writeQueryError(w, "explain", err)
		return
	}
	lib := s.engine.Snapshot()
	exps := lib.Explain(req.Activity, req.Action)
	resp := explainResponse{
		Epoch:        lib.Epoch(),
		Explanations: make([]explanationPayload, len(exps)),
	}
	for i, e := range exps {
		resp.Explanations[i] = explanationPayload{
			Goal:            e.Goal,
			Implementations: e.Implementations,
			ProgressBefore:  e.ProgressBefore,
			ProgressAfter:   e.ProgressAfter,
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// ingestRequest is the /v1/implementations body.
type ingestRequest struct {
	Implementations []implementationPayload `json:"implementations"`
}

type implementationPayload struct {
	Goal    string   `json:"goal"`
	Actions []string `json:"actions"`
}

// ingestResponse reports what the batch did. On a partial failure the
// response is a 400 carrying the same fields plus the error: the valid
// prefix has been published and Added says how far ingestion got.
type ingestResponse struct {
	Epoch uint64 `json:"epoch"`
	Added int    `json:"added"`
	Error string `json:"error,omitempty"`
	// ReadOnly marks the distinct degraded-storage rejection: the store is
	// serving reads only, and the client should retry after the storage
	// heals rather than treat the batch as malformed.
	ReadOnly bool `json:"read_only,omitempty"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req ingestRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Implementations) == 0 {
		s.writeError(w, http.StatusBadRequest, "implementations must not be empty")
		return
	}
	impls := make([]goalrec.Implementation, len(req.Implementations))
	for i, p := range req.Implementations {
		impls[i] = goalrec.Implementation{Goal: p.Goal, Actions: p.Actions}
	}
	added, err := s.engine.AddImplementations(impls)
	epoch := s.engine.Epoch()
	s.logf("ingest added=%d of %d epoch=%d", added, len(impls), epoch)
	if err != nil {
		// A journal failure means durability is gone, not that the request
		// was malformed: nothing was applied, and the operator must act. A
		// degraded (read-only) store is more specific still: the rejection
		// is temporary, so it gets 503 + Retry-After instead of a 500.
		status := http.StatusBadRequest
		resp := ingestResponse{Epoch: epoch, Added: added, Error: err.Error()}
		switch {
		case errors.Is(err, goalrec.ErrReadOnly):
			status = http.StatusServiceUnavailable
			resp.ReadOnly = true
			w.Header().Set("Retry-After", "1")
			s.errors.Add("ingest_read_only", 1)
		case errors.Is(err, goalrec.ErrJournal):
			status = http.StatusInternalServerError
			s.errors.Add("ingest_journal", 1)
		}
		s.writeJSON(w, status, resp)
		return
	}
	s.writeJSON(w, http.StatusOK, ingestResponse{Epoch: epoch, Added: added})
}

// reloadResponse is the /v1/reload reply.
type reloadResponse struct {
	Epoch           uint64 `json:"epoch"`
	Implementations int    `json:"implementations"`
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	epoch, implementations, err := s.Reload(r.Context())
	switch {
	case errors.Is(err, ErrNoReloader):
		s.writeError(w, http.StatusNotImplemented, "no reloader configured")
	case err != nil:
		// The old epoch keeps serving; reload failure must never take the
		// working library down with it.
		s.logf("reload failed: %v (keeping epoch %d, failure streak %d)", err, s.Epoch(), s.ReloadFailureStreak())
		s.writeError(w, http.StatusInternalServerError, "reload failed: %v", err)
	default:
		s.logf("reload swapped in %d implementations at epoch %d", implementations, epoch)
		s.writeJSON(w, http.StatusOK, reloadResponse{Epoch: epoch, Implementations: implementations})
	}
}

// userStoreReady answers the shared preconditions of the /v1/users handlers:
// a configured store (501 otherwise) and a non-empty path id.
func (s *Server) userStoreReady(w http.ResponseWriter, r *http.Request) (string, bool) {
	if s.users == nil {
		s.writeError(w, http.StatusNotImplemented, "no user store configured")
		return "", false
	}
	id := r.PathValue("id")
	if id == "" {
		s.writeError(w, http.StatusBadRequest, "user id must not be empty")
		return "", false
	}
	return id, true
}

// writeUserError maps a user-store failure onto the wire: 404 for an unknown
// user, 507 at the user cap, 503 + Retry-After while the store is read-only,
// 500 for a journal failure, 504/499 for the context's error, and 400 for the
// rest — what is left is the request's own fault (an empty id or action name).
func (s *Server) writeUserError(w http.ResponseWriter, endpoint, id string, err error) {
	switch {
	case errors.Is(err, goalrec.ErrUnknownUser):
		s.writeError(w, http.StatusNotFound, "unknown user %q", id)
	case errors.Is(err, goalrec.ErrTooManyUsers):
		s.writeError(w, http.StatusInsufficientStorage, "%v", err)
	case errors.Is(err, goalrec.ErrReadOnly):
		s.errors.Add("user_read_only", 1)
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, goalrec.ErrJournal):
		s.errors.Add("user_journal", 1)
		s.writeError(w, http.StatusInternalServerError, "%v", err)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		s.writeQueryError(w, endpoint, err)
	default:
		s.writeError(w, http.StatusBadRequest, "%v", err)
	}
}

// userAppendRequest is the POST /v1/users/{id}/actions body.
type userAppendRequest struct {
	Actions []string `json:"actions"`
}

// userAppendResponse reports the append: Added counts the actions that were
// new (duplicates of the stored history are dropped), Total is the history
// length afterwards.
type userAppendResponse struct {
	Epoch uint64 `json:"epoch"`
	Added int    `json:"added"`
	Total int    `json:"total"`
}

func (s *Server) handleUserAppend(w http.ResponseWriter, r *http.Request) {
	id, ok := s.userStoreReady(w, r)
	if !ok {
		return
	}
	var req userAppendRequest
	if !s.decode(w, r, &req) {
		return
	}
	if !s.validActivity(w, req.Actions) {
		return
	}
	added, err := s.users.Append(id, req.Actions)
	if err != nil {
		s.writeUserError(w, "user_append", id, err)
		return
	}
	history, herr := s.users.History(id)
	if herr != nil {
		// The user raced a delete after the append landed; report the append.
		history = nil
	}
	s.logf("user_append id=%s added=%d total=%d", id, added, len(history))
	s.writeJSON(w, http.StatusOK, userAppendResponse{
		Epoch: s.engine.Epoch(), Added: added, Total: len(history),
	})
}

// handleUserRecommend answers GET /v1/users/{id}/recommend: the same reply
// shape as /v1/recommend, scored from the user's stored history.
func (s *Server) handleUserRecommend(w http.ResponseWriter, r *http.Request) {
	id, ok := s.userStoreReady(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	k := 10
	if kq := q.Get("k"); kq != "" {
		n, err := strconv.Atoi(kq)
		if err != nil || n < 1 || n > 1000 {
			s.writeError(w, http.StatusBadRequest, "k must be in [1, 1000]")
			return
		}
		k = n
	}
	spec, err := goalrec.ResolveStrategy(q.Get("strategy"), q.Get("metric"))
	if err != nil {
		s.writeQueryError(w, "user_recommend", err)
		return
	}
	res, err := s.users.Recommend(r.Context(), id, spec.Strategy, k, goalrec.WithDistanceMetric(spec.Metric.String()))
	if err != nil {
		s.writeUserError(w, "user_recommend", id, err)
		return
	}
	s.logf("user_recommend id=%s strategy=%s k=%d results=%d epoch=%d",
		id, spec.Name, k, len(res.Recommendations), res.Epoch)
	s.writeJSON(w, http.StatusOK, recommendResponse{
		Epoch:           res.Epoch,
		Strategy:        spec.Name,
		Recommendations: payloads(res.Recommendations),
		UnknownActions:  res.UnknownActions,
	})
}

// userDeleteResponse is the DELETE /v1/users/{id} reply.
type userDeleteResponse struct {
	Deleted bool `json:"deleted"`
}

func (s *Server) handleUserDelete(w http.ResponseWriter, r *http.Request) {
	id, ok := s.userStoreReady(w, r)
	if !ok {
		return
	}
	if err := s.users.Delete(id); err != nil {
		s.writeUserError(w, "user_delete", id, err)
		return
	}
	s.logf("user_delete id=%s", id)
	s.writeJSON(w, http.StatusOK, userDeleteResponse{Deleted: true})
}
