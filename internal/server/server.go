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
//	DELETE /v1/users/{id}             forget the user (history + materialized view)
//
// The user endpoints (enabled with WithUserStore, 501 otherwise) serve
// per-user state the server owns: each user's deduplicated activity history
// plus a materialized counter view, so an append is one posting-row walk and
// a recommend scores pre-accumulated counters instead of rescanning the
// history — bit-identical to POSTing the same history to /v1/recommend.
//
// The server is epoch-based: it holds an atomic pointer to the current
// epoch's {library snapshot, recommender set} bundle. Queries load the
// bundle once and answer entirely from it, so they always see one
// consistent epoch; ingests and reloads publish the next epoch without
// blocking in-flight queries. Every response carries the epoch it was
// answered from.
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

// maxActivityActions bounds the activity length accepted by the scoring
// endpoints: longer activities are rejected with a 400 before any CPU is
// spent on them.
const maxActivityActions = 10_000

// statusClientClosedRequest is the nginx-convention status for a request
// aborted because the client went away; it is never seen by that client,
// but keeps the error accounting honest.
const statusClientClosedRequest = 499

// defaultAdmissionWait is how long an over-limit request may wait for an
// admission slot before being shed. Short by design: queueing beyond a few
// request-times only converts overload into latency.
const defaultAdmissionWait = 10 * time.Millisecond

// bundle pairs one epoch's library snapshot with the recommenders built
// over it. Queries that grabbed a bundle keep using it even while a newer
// epoch is being installed; dropping the whole bundle on swap is what
// invalidates the recommender caches.
type bundle struct {
	lib *goalrec.Library

	// pruneStats receives the block-max scan counters of this bundle's Focus
	// recommenders. The sink is the Server's, shared across epochs, so the
	// cumulative counters survive swaps.
	pruneStats *goalrec.PruneStats

	mu   sync.Mutex
	recs map[string]goalrec.Recommender // lazily built per strategy/metric
}

func (s *Server) newBundle(lib *goalrec.Library) *bundle {
	return &bundle{lib: lib, pruneStats: &s.pruneStats, recs: make(map[string]goalrec.Recommender)}
}

// recommender returns (building on first use) the bundle's recommender for
// the strategy/metric pair.
func (b *bundle) recommender(strategyName, metric string) (goalrec.Recommender, error) {
	if strategyName == "" {
		strategyName = string(goalrec.Breadth)
	}
	if metric == "" {
		metric = "cosine"
	}
	key := strategyName + "/" + metric
	b.mu.Lock()
	defer b.mu.Unlock()
	if rec, ok := b.recs[key]; ok {
		return rec, nil
	}
	// Serving workloads repeat activities heavily; strategies are
	// deterministic over the immutable snapshot, so an LRU per recommender
	// is sound — and it dies with the bundle, never serving a stale epoch.
	rec, err := b.lib.Recommender(goalrec.Strategy(strategyName),
		goalrec.WithDistanceMetric(metric), goalrec.WithCache(4096), goalrec.WithPruningStats(b.pruneStats))
	if err != nil {
		return nil, err
	}
	b.recs[key] = rec
	return rec, nil
}

// Option customizes a Server.
type Option func(*Server)

// WithReloader installs the loader /v1/reload invokes to re-read the
// library from its source of truth. Without one, /v1/reload answers 501.
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
// a slot (see WithAdmissionWait) and is then shed as a 503 with a
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

// WithAdmissionWait sets how long an over-limit request may wait for an
// admission slot before being shed (default 10ms). Only meaningful with
// WithMaxInflight.
func WithAdmissionWait(d time.Duration) Option {
	return func(s *Server) { s.gateWait = d }
}

// WithUserStore enables the /v1/users endpoints over us — typically
// Store.Users() so appends and deletes are journaled. Without it the user
// endpoints answer 501. The store's counters (materialized hits, cold
// builds, advances, evictions) appear under "users" in /v1/metrics.
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

// Server routes recommendation requests against the current epoch of an
// evolving library.
type Server struct {
	engine *goalrec.Engine
	cur    atomic.Pointer[bundle]
	swapMu sync.Mutex // serializes bundle installs (monotonic epoch guard)
	reload func() (*goalrec.Library, error)

	mux *http.ServeMux
	log *log.Logger

	// Request-lifecycle knobs (see WithRequestTimeout / WithMaxInflight).
	timeout  time.Duration
	gate     chan struct{}
	gateWait time.Duration

	// pruneStats is the shared sink every bundle's Focus recommenders count
	// their block-max scans into; it only moves while the served snapshot is
	// size-sorted. Surfaced under "pruning" in /v1/metrics.
	pruneStats goalrec.PruneStats

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
	s := &Server{
		engine:    engine,
		mux:       http.NewServeMux(),
		log:       logger,
		gateWait:  defaultAdmissionWait,
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
	s.cur.Store(s.newBundle(s.engine.Snapshot()))
	s.mux.HandleFunc("GET /healthz", s.counted("healthz", s.handleHealth))
	s.mux.HandleFunc("GET /readyz", s.counted("readyz", s.handleReady))
	s.mux.HandleFunc("GET /v1/stats", s.counted("stats", s.handleStats))
	s.mux.HandleFunc("POST /v1/recommend", s.counted("recommend", s.gated("recommend", s.handleRecommend)))
	s.mux.HandleFunc("POST /v1/recommend/batch", s.counted("recommend_batch", s.gated("recommend_batch", s.handleRecommendBatch)))
	s.mux.HandleFunc("POST /v1/spaces", s.counted("spaces", s.gated("spaces", s.handleSpaces)))
	s.mux.HandleFunc("POST /v1/explain", s.counted("explain", s.gated("explain", s.handleExplain)))
	s.mux.HandleFunc("POST /v1/implementations", s.counted("implementations", s.handleIngest))
	s.mux.HandleFunc("POST /v1/reload", s.counted("reload", s.gated("reload", s.handleReload)))
	s.mux.HandleFunc("GET /v1/metrics", s.counted("metrics", s.handleMetrics))
	s.mux.HandleFunc("POST /v1/users/{id}/actions", s.counted("user_append", s.gated("user_append", s.handleUserAppend)))
	s.mux.HandleFunc("GET /v1/users/{id}/recommend", s.counted("user_recommend", s.gated("user_recommend", s.handleUserRecommend)))
	s.mux.HandleFunc("DELETE /v1/users/{id}", s.counted("user_delete", s.handleUserDelete))
	return s
}

// bundle returns the current epoch's bundle. Handlers load it exactly once
// per request so library, recommenders and reported epoch stay consistent.
func (s *Server) bundle() *bundle { return s.cur.Load() }

// Epoch returns the epoch the server currently answers from.
func (s *Server) Epoch() uint64 { return s.bundle().lib.Epoch() }

// Swap replaces the served library with lib as the next epoch and returns
// that epoch. In-flight requests finish against the bundle they loaded.
func (s *Server) Swap(lib *goalrec.Library) uint64 {
	return s.install(s.engine.Swap(lib))
}

// install publishes lib's bundle unless a newer (or the same) epoch is
// already being served — concurrent ingests and swaps race to install, and
// the guard keeps the served epoch monotonic.
func (s *Server) install(lib *goalrec.Library) uint64 {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	if cur := s.cur.Load(); cur != nil && lib.Epoch() <= cur.lib.Epoch() {
		return cur.lib.Epoch()
	}
	s.cur.Store(s.newBundle(lib))
	return lib.Epoch()
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// SetDraining marks the server as (not) draining. While draining, /readyz
// answers 503 so load balancers route new traffic elsewhere; everything
// else keeps serving so in-flight and straggler requests complete.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Draining reports whether the server is draining.
func (s *Server) Draining() bool { return s.draining.Load() }

// NoteReloadFailure records a failed library reload (from /v1/reload or an
// external watch loop) and returns the current consecutive-failure streak.
func (s *Server) NoteReloadFailure() int64 {
	s.lifecycle.Add("reload_failures", 1)
	return s.reloadStreak.Add(1)
}

// NoteReloadSuccess resets the consecutive reload-failure streak.
func (s *Server) NoteReloadSuccess() { s.reloadStreak.Store(0) }

// ReloadFailureStreak returns the current consecutive reload-failure
// streak.
func (s *Server) ReloadFailureStreak() int64 { return s.reloadStreak.Load() }

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
				s.logf("server: panic in %s: %v\n%s", name, rec, debug.Stack())
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
// up to gateWait for a slot and is then shed: 503 plus a Retry-After so
// well-behaved clients back off instead of hammering.
func (s *Server) gated(name string, h http.HandlerFunc) http.HandlerFunc {
	if s.gate == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.gate <- struct{}{}:
		default:
			// Full: wait briefly for a slot, but give up on shed timeout or
			// the client hanging up.
			t := time.NewTimer(s.gateWait)
			defer t.Stop()
			select {
			case s.gate <- struct{}{}:
			case <-t.C:
				s.lifecycle.Add("sheds", 1)
				s.logf("server: shedding %s (inflight limit %d)", name, cap(s.gate))
				w.Header().Set("Retry-After", "1")
				s.writeError(w, http.StatusServiceUnavailable, "overloaded, retry later")
				return
			case <-r.Context().Done():
				s.lifecycle.Add("sheds", 1)
				w.Header().Set("Retry-After", "1")
				s.writeError(w, http.StatusServiceUnavailable, "overloaded, retry later")
				return
			}
		}
		defer func() { <-s.gate }()
		h(w, r)
	}
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

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	s.writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]interface{}{
		"status": "ok",
		"epoch":  s.bundle().lib.Epoch(),
	})
}

// handleReady is the readiness probe: 503 while draining (so load
// balancers stop routing here during shutdown), 200 otherwise. It also
// surfaces the reload-failure streak — a persistently failing reload means
// the instance is serving an increasingly stale epoch, which operators
// want visible even while the instance stays ready.
// It also reports "degraded" (still 200 — reads keep serving) with a
// "storage" block while a WithStore store is read-only.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	code := http.StatusOK
	resp := map[string]interface{}{
		"epoch":                 s.bundle().lib.Epoch(),
		"reload_failure_streak": s.reloadStreak.Load(),
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
	b := s.bundle()
	st := b.lib.Stats()
	s.writeJSON(w, http.StatusOK, statsResponse{
		Epoch:           b.lib.Epoch(),
		Implementations: st.Implementations,
		Actions:         st.Actions,
		Goals:           st.Goals,
		AvgImplLen:      st.AvgImplLen,
		Connectivity:    st.Connectivity,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	b := s.bundle()
	// "enabled" says whether the counters can move at this epoch: Focus takes
	// the block-max scan exactly when the served snapshot is size-sorted.
	prune, err := json.Marshal(s.pruneStats.Snapshot())
	if err != nil {
		prune = []byte("{}")
	}
	users := []byte("{}")
	if s.users != nil {
		if u, err := json.Marshal(s.users.Stats()); err == nil {
			users = u
		}
	}
	storage := []byte(`{"enabled": false}`)
	if p := s.storagePayload(); p != nil {
		if b, err := json.Marshal(p); err == nil {
			storage = append([]byte(`{"enabled": true, "status": `), b...)
			storage = append(storage, '}')
		}
	}
	cacheStats := goalrec.BlockCacheMetrics()
	cache := []byte("{}")
	if b, err := json.Marshal(cacheStats); err == nil {
		cache = b
	}
	// What backs the served library: mapped or heap, bytes per index
	// structure, the process's mappings and the last sidecar decision.
	library, err := json.Marshal(b.lib.Backing())
	if err != nil {
		library = []byte("{}")
	}
	fmt.Fprintf(w, "{\"epoch\": %d, \"requests\": %s, \"errors\": %s, \"lifecycle\": %s, \"pruning\": {\"enabled\": %t, \"counters\": %s}, \"users\": {\"enabled\": %t, \"counters\": %s}, \"storage\": %s, \"block_cache\": {\"enabled\": %t, \"counters\": %s}, \"library\": %s, \"reload_failure_streak\": %d}\n",
		b.lib.Epoch(), s.requests.String(), s.errors.String(),
		s.lifecycle.String(), b.lib.Core().ImplLenSorted(), prune, s.users != nil, users, storage,
		cacheStats.BudgetBytes > 0, cache, library, s.reloadStreak.Load())
}

// recommendRequest is the /v1/recommend body.
type recommendRequest struct {
	Activity []string `json:"activity"`
	Strategy string   `json:"strategy"` // default "breadth"
	Metric   string   `json:"metric"`   // best-match distance, default "cosine"
	K        int      `json:"k"`        // default 10
}

// recommendResponse is the /v1/recommend reply. UnknownActions lists the
// activity's actions the served epoch cannot resolve (and therefore
// ignored) — without it, a typo in an action name is indistinguishable
// from an action that merely scores low.
type recommendResponse struct {
	Epoch           uint64                  `json:"epoch"`
	Strategy        string                  `json:"strategy"`
	Recommendations []recommendationPayload `json:"recommendations"`
	UnknownActions  []string                `json:"unknown_actions,omitempty"`
}

type recommendationPayload struct {
	Action string  `json:"action"`
	Score  float64 `json:"score"`
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
// maxActivityActions actions. It writes the 400 itself on violation.
func (s *Server) validActivity(w http.ResponseWriter, activity []string) bool {
	if len(activity) == 0 {
		s.writeError(w, http.StatusBadRequest, "activity must not be empty")
		return false
	}
	if len(activity) > maxActivityActions {
		s.writeError(w, http.StatusBadRequest,
			"activity too long: %d actions (limit %d)", len(activity), maxActivityActions)
		return false
	}
	return true
}

// writeContextError maps a canceled or deadline-expired scoring error onto
// the wire: 504 {"error": "deadline exceeded"} when the request deadline
// ran out, 499 (client closed request) when the client hung up. It also
// bumps the matching lifecycle counter.
func (s *Server) writeContextError(w http.ResponseWriter, endpoint string, err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		s.lifecycle.Add("deadline_exceeded", 1)
		s.logf("server: %s hit the request deadline", endpoint)
		s.writeError(w, http.StatusGatewayTimeout, "deadline exceeded")
		return
	}
	s.lifecycle.Add("canceled", 1)
	s.logf("server: %s canceled by the client", endpoint)
	s.writeError(w, statusClientClosedRequest, "client closed request")
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	var req recommendRequest
	if !s.decode(w, r, &req) {
		return
	}
	if !s.validActivity(w, req.Activity) {
		return
	}
	if req.K == 0 {
		req.K = 10
	}
	if req.K < 0 || req.K > 1000 {
		s.writeError(w, http.StatusBadRequest, "k must be in [1, 1000]")
		return
	}
	b := s.bundle()
	rec, err := b.recommender(req.Strategy, req.Metric)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	list, err := rec.RecommendContext(r.Context(), req.Activity, req.K)
	if err != nil {
		s.writeContextError(w, "recommend", err)
		return
	}
	resp := recommendResponse{
		Epoch:           b.lib.Epoch(),
		Strategy:        rec.Name(),
		Recommendations: make([]recommendationPayload, len(list)),
		UnknownActions:  b.lib.UnknownActions(req.Activity),
	}
	for i, rcm := range list {
		resp.Recommendations[i] = recommendationPayload{Action: rcm.Action, Score: rcm.Score}
	}
	s.logf("recommend strategy=%s k=%d activity=%d results=%d epoch=%d",
		rec.Name(), req.K, len(req.Activity), len(list), resp.Epoch)
	s.writeJSON(w, http.StatusOK, resp)
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
}

// handleRecommendBatch scores many activities in one request: the body is
// decoded once, one bundle (snapshot + recommender) is resolved for the
// whole batch, and the activities fan out over the library's worker pool —
// all under this request's single admission slot and deadline. Per-item
// validation failures are reported per item; a deadline or disconnect
// mid-batch fails the whole request (504/499), since the remaining items
// can no longer be answered.
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
	if req.K == 0 {
		req.K = 10
	}
	if req.K < 0 || req.K > 1000 {
		s.writeError(w, http.StatusBadRequest, "k must be in [1, 1000]")
		return
	}
	b := s.bundle()
	rec, err := b.recommender(req.Strategy, req.Metric)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	results := make([]batchItemPayload, len(req.Activities))
	scorable := make([]int, 0, len(req.Activities))
	for i, activity := range req.Activities {
		switch {
		case len(activity) == 0:
			results[i].Error = "activity must not be empty"
		case len(activity) > maxActivityActions:
			results[i].Error = fmt.Sprintf("activity too long: %d actions (limit %d)",
				len(activity), maxActivityActions)
		default:
			scorable = append(scorable, i)
		}
	}
	batch := make([][]string, len(scorable))
	for j, i := range scorable {
		batch[j] = req.Activities[i]
	}
	for j, res := range rec.RecommendBatch(r.Context(), batch, req.K) {
		if res.Err != nil {
			s.writeContextError(w, "recommend/batch", res.Err)
			return
		}
		i := scorable[j]
		results[i].Recommendations = make([]recommendationPayload, len(res.Recommendations))
		for n, rcm := range res.Recommendations {
			results[i].Recommendations[n] = recommendationPayload{Action: rcm.Action, Score: rcm.Score}
		}
		// The batch resolved every name once; its per-item unknown list is
		// authoritative, so no second vocabulary pass here.
		results[i].UnknownActions = res.UnknownActions
	}
	resp := batchRecommendResponse{
		Epoch:    b.lib.Epoch(),
		Strategy: rec.Name(),
		Results:  results,
	}
	s.logf("recommend/batch strategy=%s k=%d activities=%d epoch=%d",
		rec.Name(), req.K, len(req.Activities), resp.Epoch)
	s.writeJSON(w, http.StatusOK, resp)
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
		s.writeContextError(w, "spaces", err)
		return
	}
	b := s.bundle()
	progress := b.lib.GoalProgress(req.Activity)
	goals := b.lib.GoalSpace(req.Activity)
	resp := spacesResponse{
		Epoch:          b.lib.Epoch(),
		Goals:          make([]goalProgressPayload, len(goals)),
		Actions:        b.lib.ActionSpace(req.Activity),
		UnknownActions: b.lib.UnknownActions(req.Activity),
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
		s.writeContextError(w, "explain", err)
		return
	}
	b := s.bundle()
	exps := b.lib.Explain(req.Activity, req.Action)
	resp := explainResponse{
		Epoch:        b.lib.Epoch(),
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
	epoch := s.install(s.engine.Snapshot())
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
	if s.reload == nil {
		s.writeError(w, http.StatusNotImplemented, "no reloader configured")
		return
	}
	lib, err := s.reload()
	if err != nil {
		// The old epoch keeps serving; reload failure must never take the
		// working library down with it.
		streak := s.NoteReloadFailure()
		s.logf("reload failed: %v (keeping epoch %d, failure streak %d)", err, s.Epoch(), streak)
		s.writeError(w, http.StatusInternalServerError, "reload failed: %v", err)
		return
	}
	s.NoteReloadSuccess()
	epoch := s.Swap(lib)
	s.logf("reload swapped in %d implementations at epoch %d", lib.NumImplementations(), epoch)
	s.writeJSON(w, http.StatusOK, reloadResponse{
		Epoch:           epoch,
		Implementations: lib.NumImplementations(),
	})
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
		switch {
		case errors.Is(err, goalrec.ErrTooManyUsers):
			s.writeError(w, http.StatusInsufficientStorage, "%v", err)
		case errors.Is(err, goalrec.ErrReadOnly):
			s.errors.Add("user_read_only", 1)
			w.Header().Set("Retry-After", "1")
			s.writeError(w, http.StatusServiceUnavailable, "%v", err)
		case errors.Is(err, goalrec.ErrJournal):
			s.errors.Add("user_journal", 1)
			s.writeError(w, http.StatusInternalServerError, "%v", err)
		default:
			s.writeError(w, http.StatusBadRequest, "%v", err)
		}
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

// userRecommendResponse is the GET /v1/users/{id}/recommend reply — the same
// shape as /v1/recommend, answered from the user's stored history.
type userRecommendResponse struct {
	Epoch           uint64                  `json:"epoch"`
	Strategy        string                  `json:"strategy"`
	Recommendations []recommendationPayload `json:"recommendations"`
	UnknownActions  []string                `json:"unknown_actions,omitempty"`
}

func (s *Server) handleUserRecommend(w http.ResponseWriter, r *http.Request) {
	id, ok := s.userStoreReady(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	strategyName := q.Get("strategy")
	if strategyName == "" {
		strategyName = string(goalrec.Breadth)
	}
	metric := q.Get("metric")
	if metric == "" {
		metric = "cosine"
	}
	k := 10
	if kq := q.Get("k"); kq != "" {
		n, err := strconv.Atoi(kq)
		if err != nil || n < 1 || n > 1000 {
			s.writeError(w, http.StatusBadRequest, "k must be in [1, 1000]")
			return
		}
		k = n
	}
	res, err := s.users.Recommend(r.Context(), id, goalrec.Strategy(strategyName), k,
		goalrec.WithDistanceMetric(metric))
	if err != nil {
		switch {
		case errors.Is(err, goalrec.ErrUnknownUser):
			s.writeError(w, http.StatusNotFound, "unknown user %q", id)
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			s.writeContextError(w, "user_recommend", err)
		default:
			s.writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	resp := userRecommendResponse{
		Epoch:           res.Epoch,
		Strategy:        strategyName,
		Recommendations: make([]recommendationPayload, len(res.Recommendations)),
		UnknownActions:  res.UnknownActions,
	}
	for i, rcm := range res.Recommendations {
		resp.Recommendations[i] = recommendationPayload{Action: rcm.Action, Score: rcm.Score}
	}
	s.logf("user_recommend id=%s strategy=%s k=%d results=%d epoch=%d",
		id, strategyName, k, len(resp.Recommendations), resp.Epoch)
	s.writeJSON(w, http.StatusOK, resp)
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
		switch {
		case errors.Is(err, goalrec.ErrUnknownUser):
			s.writeError(w, http.StatusNotFound, "unknown user %q", id)
		case errors.Is(err, goalrec.ErrReadOnly):
			s.errors.Add("user_read_only", 1)
			w.Header().Set("Retry-After", "1")
			s.writeError(w, http.StatusServiceUnavailable, "%v", err)
		case errors.Is(err, goalrec.ErrJournal):
			s.errors.Add("user_journal", 1)
			s.writeError(w, http.StatusInternalServerError, "%v", err)
		default:
			s.writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	s.logf("user_delete id=%s", id)
	s.writeJSON(w, http.StatusOK, userDeleteResponse{Deleted: true})
}
