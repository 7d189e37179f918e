package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
)

// maxBodyBytes / maxActivityActions / maxBatchActivities mirror the
// single-node server's request bounds so a client cannot tell the
// topologies apart by their validation behavior.
const (
	maxBodyBytes       = 1 << 20
	maxActivityActions = 10_000
	maxBatchActivities = 256

	// statusClientClosedRequest mirrors internal/server: the nginx
	// convention for a request aborted because the client went away.
	statusClientClosedRequest = 499
)

// HTTPHandler is the coordinator's HTTP front end. It exposes the same
// request and response shapes as the single-node server's recommendation
// endpoints — plus a "degraded" response flag and a "cluster" metrics block
// — so clients and load balancers need no topology awareness.
//
//	GET  /healthz
//	GET  /readyz
//	GET  /v1/stats
//	GET  /v1/metrics              requests/errors + the "cluster" and "library" blocks
//	POST /v1/recommend
//	POST /v1/recommend/batch
//	POST /v1/reload               cluster-wide two-phase snapshot swap
type HTTPHandler struct {
	co  *Coordinator
	mux *http.ServeMux

	draining atomic.Bool
	requests *expvar.Map
	errors   *expvar.Map
}

// NewHTTPHandler wraps co in its HTTP front end.
func NewHTTPHandler(co *Coordinator) *HTTPHandler {
	h := &HTTPHandler{
		co:       co,
		mux:      http.NewServeMux(),
		requests: new(expvar.Map).Init(),
		errors:   new(expvar.Map).Init(),
	}
	h.mux.HandleFunc("GET /healthz", h.counted("healthz", h.handleHealth))
	h.mux.HandleFunc("GET /readyz", h.counted("readyz", h.handleReady))
	h.mux.HandleFunc("GET /v1/stats", h.counted("stats", h.handleStats))
	h.mux.HandleFunc("GET /v1/metrics", h.counted("metrics", h.handleMetrics))
	h.mux.HandleFunc("POST /v1/recommend", h.counted("recommend", h.handleRecommend))
	h.mux.HandleFunc("POST /v1/recommend/batch", h.counted("recommend_batch", h.handleRecommendBatch))
	h.mux.HandleFunc("POST /v1/reload", h.counted("reload", h.handleReload))
	return h
}

// ServeHTTP implements http.Handler.
func (h *HTTPHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

// SetDraining flips the /readyz answer for graceful shutdown.
func (h *HTTPHandler) SetDraining(v bool) { h.draining.Store(v) }

func (h *HTTPHandler) counted(name string, fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		h.requests.Add(name, 1)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		fn(sw, r)
		if sw.status >= 400 {
			h.errors.Add(name, 1)
		}
	}
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (h *HTTPHandler) writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError answers with an error body. Every 5xx is also named in the
// coordinator's log — status, cause, the coordinator's epoch and the epoch
// each worker last reported — so a failed request can be explained from the
// running system; this is an error log, not a request log, and is not
// silenced by -quiet.
func (h *HTTPHandler) writeError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	msg := fmt.Sprintf(format, args...)
	if status >= 500 {
		h.co.logf("cluster: answering %d: %s (coordinator epoch %d, worker epochs %v)",
			status, msg, h.co.Epoch(), h.co.peerEpochs())
	}
	h.writeJSON(w, status, map[string]string{"error": msg})
}

func (h *HTTPHandler) decode(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		h.writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return false
	}
	return true
}

func (h *HTTPHandler) handleHealth(w http.ResponseWriter, _ *http.Request) {
	h.writeJSON(w, http.StatusOK, map[string]interface{}{
		"status": "ok",
		"epoch":  h.co.Epoch(),
	})
}

func (h *HTTPHandler) handleReady(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	code := http.StatusOK
	connected := h.co.Connected()
	if connected < len(h.co.peers) {
		status = "degraded"
	}
	if h.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	h.writeJSON(w, code, map[string]interface{}{
		"status":    status,
		"epoch":     h.co.Epoch(),
		"workers":   len(h.co.peers),
		"connected": connected,
	})
}

func (h *HTTPHandler) handleStats(w http.ResponseWriter, _ *http.Request) {
	lib := h.co.Snapshot()
	st := lib.Stats()
	h.writeJSON(w, http.StatusOK, map[string]interface{}{
		"epoch":                  lib.Epoch(),
		"implementations":        st.Implementations,
		"actions":                st.Actions,
		"goals":                  st.Goals,
		"avg_implementation_len": st.AvgImplLen,
		"connectivity":           st.Connectivity,
	})
}

func (h *HTTPHandler) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	cluster, err := json.Marshal(h.co.Metrics().Snapshot(h.co.Connected()))
	if err != nil {
		cluster = []byte("{}")
	}
	// Same "library" block as the single-node server: what backs the
	// coordinator's copy of the artifact.
	library, err := json.Marshal(h.co.Snapshot().Backing())
	if err != nil {
		library = []byte("{}")
	}
	fmt.Fprintf(w, "{\"epoch\": %d, \"requests\": %s, \"errors\": %s, \"cluster\": %s, \"library\": %s}\n",
		h.co.Epoch(), h.requests.String(), h.errors.String(), cluster, library)
}

// clusterRecommendRequest mirrors the single-node /v1/recommend body.
type clusterRecommendRequest struct {
	Activity []string `json:"activity"`
	Strategy string   `json:"strategy"`
	Metric   string   `json:"metric"`
	K        int      `json:"k"`
}

// clusterRecommendResponse mirrors the single-node reply, plus Degraded.
type clusterRecommendResponse struct {
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

// writeQueryError maps a gather error onto the wire: 504/499 for deadline
// and disconnect (mirroring the single-node lifecycle), 400 for a bad
// strategy or k, 502 for shard failures under the fail-closed policy.
func (h *HTTPHandler) writeQueryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		h.writeError(w, http.StatusGatewayTimeout, "deadline exceeded")
	case errors.Is(err, context.Canceled):
		h.writeError(w, statusClientClosedRequest, "client closed request")
	case isBadRequestErr(err):
		h.writeError(w, http.StatusBadRequest, "%v", err)
	default:
		h.writeError(w, http.StatusBadGateway, "%v", err)
	}
}

// isBadRequestErr classifies errors the client caused (bad strategy name,
// bad metric, unusable k) as 400s rather than 502s.
func isBadRequestErr(err error) bool {
	msg := err.Error()
	for _, sub := range []string{"unknown strategy", "unknown metric", "needs k"} {
		if strings.Contains(msg, sub) {
			return true
		}
	}
	return false
}

func (h *HTTPHandler) handleRecommend(w http.ResponseWriter, r *http.Request) {
	var req clusterRecommendRequest
	if !h.decode(w, r, &req) {
		return
	}
	if len(req.Activity) == 0 {
		h.writeError(w, http.StatusBadRequest, "activity must not be empty")
		return
	}
	if len(req.Activity) > maxActivityActions {
		h.writeError(w, http.StatusBadRequest,
			"activity too long: %d actions (limit %d)", len(req.Activity), maxActivityActions)
		return
	}
	if req.K == 0 {
		req.K = 10
	}
	if req.K < 0 || req.K > 1000 {
		h.writeError(w, http.StatusBadRequest, "k must be in [1, 1000]")
		return
	}
	res, err := h.co.Recommend(r.Context(), req.Strategy, req.Metric, req.Activity, req.K)
	if err != nil {
		h.writeQueryError(w, err)
		return
	}
	resp := clusterRecommendResponse{
		Epoch:           res.Epoch,
		Strategy:        res.Strategy,
		Recommendations: make([]recommendationPayload, len(res.Recommendations)),
		UnknownActions:  res.UnknownActions,
		Degraded:        res.Degraded,
	}
	for i, rcm := range res.Recommendations {
		resp.Recommendations[i] = recommendationPayload{Action: rcm.Action, Score: rcm.Score}
	}
	h.writeJSON(w, http.StatusOK, resp)
}

// clusterBatchRequest mirrors the single-node /v1/recommend/batch body.
type clusterBatchRequest struct {
	Activities [][]string `json:"activities"`
	Strategy   string     `json:"strategy"`
	Metric     string     `json:"metric"`
	K          int        `json:"k"`
}

type clusterBatchItem struct {
	Recommendations []recommendationPayload `json:"recommendations"`
	UnknownActions  []string                `json:"unknown_actions,omitempty"`
	Error           string                  `json:"error,omitempty"`
}

type clusterBatchResponse struct {
	Epoch    uint64             `json:"epoch"`
	Strategy string             `json:"strategy"`
	Results  []clusterBatchItem `json:"results"`
	Degraded bool               `json:"degraded,omitempty"`
}

func (h *HTTPHandler) handleRecommendBatch(w http.ResponseWriter, r *http.Request) {
	var req clusterBatchRequest
	if !h.decode(w, r, &req) {
		return
	}
	if len(req.Activities) == 0 {
		h.writeError(w, http.StatusBadRequest, "activities must not be empty")
		return
	}
	if len(req.Activities) > maxBatchActivities {
		h.writeError(w, http.StatusBadRequest,
			"too many activities: %d (limit %d)", len(req.Activities), maxBatchActivities)
		return
	}
	if req.K == 0 {
		req.K = 10
	}
	if req.K < 0 || req.K > 1000 {
		h.writeError(w, http.StatusBadRequest, "k must be in [1, 1000]")
		return
	}
	// Validate the strategy before scoring anything, like the single-node
	// batch handler does.
	spec, err := parseStrategy(req.Strategy, req.Metric)
	if err != nil {
		h.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp := clusterBatchResponse{
		Epoch:    h.co.Epoch(),
		Strategy: spec.name,
		Results:  make([]clusterBatchItem, len(req.Activities)),
	}
	for i, activity := range req.Activities {
		switch {
		case len(activity) == 0:
			resp.Results[i].Error = "activity must not be empty"
			continue
		case len(activity) > maxActivityActions:
			resp.Results[i].Error = fmt.Sprintf("activity too long: %d actions (limit %d)",
				len(activity), maxActivityActions)
			continue
		}
		res, err := h.co.Recommend(r.Context(), req.Strategy, req.Metric, activity, req.K)
		if err != nil {
			// Any gather failure — context expiry, shard failure under the
			// fail-closed policy, epoch skew — aborts the whole batch: the
			// remaining items could not be answered consistently anyway.
			h.writeQueryError(w, err)
			return
		}
		resp.Degraded = resp.Degraded || res.Degraded
		resp.Results[i].Recommendations = make([]recommendationPayload, len(res.Recommendations))
		for n, rcm := range res.Recommendations {
			resp.Results[i].Recommendations[n] = recommendationPayload{Action: rcm.Action, Score: rcm.Score}
		}
		resp.Results[i].UnknownActions = res.UnknownActions
	}
	h.writeJSON(w, http.StatusOK, resp)
}

func (h *HTTPHandler) handleReload(w http.ResponseWriter, r *http.Request) {
	epoch, impls, err := h.co.Reload(r.Context())
	if err != nil {
		if errors.Is(err, ErrNoReloader) {
			h.writeError(w, http.StatusNotImplemented, "no reloader configured")
			return
		}
		h.writeError(w, http.StatusInternalServerError, "reload failed: %v", err)
		return
	}
	h.writeJSON(w, http.StatusOK, map[string]interface{}{
		"epoch":           epoch,
		"implementations": impls,
	})
}
