package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"

	"goalrec"
	"goalrec/internal/comms"
	"goalrec/internal/strategy"
	"goalrec/internal/vectorspace"
)

// WorkerConfig configures one shard-serving worker.
type WorkerConfig struct {
	// Lo, Hi is the implementation range [Lo, Hi) this worker serves.
	// Hi == -1 means "to the end of the library", the recommended setting
	// for the last shard so the assignment survives library growth.
	Lo, Hi int
	// Reload re-reads this worker's library source for a two-phase swap.
	// Nil disables FramePrepare (answered with an error).
	Reload func() (*goalrec.Library, error)
	// Logger may be nil.
	Logger *log.Logger
}

// Worker serves one implementation-range shard of the library over the
// comms protocol. It owns a full engine — typically recovered from the
// worker's own snapshot+WAL store, so workers restart independently — and
// serves its range from a partition of the current epoch's snapshot, mapped
// from a keyed shard file when that snapshot is a sidecar-served library
// (goalrec.Library.PartitionMapped). Queries run against the partition and
// report global implementation ids, which is what lets the coordinator merge
// shard partials into the single-node order.
type Worker struct {
	engine *goalrec.Engine
	cfg    WorkerConfig
	srv    *comms.Server

	// shardMu guards the epoch-keyed partition cache: the partition and its
	// strategy instances are replaced when the engine publishes a new epoch,
	// never mid-query — in-flight queries keep the shardState they loaded. A
	// commit swaps the engine and installs the staged partition under it, so
	// no query sees the new epoch without its partition.
	shardMu sync.Mutex
	shard   *shardState

	// stagedMu guards the two-phase swap state: the library a prepare loaded
	// and the partition it cut from it, which a commit installs together.
	stagedMu    sync.Mutex
	staged      *goalrec.Library
	stagedShard *shardState

	// floorMu guards the in-flight floor registry: FrameFocus handlers
	// register their FocusFloorShare under (conn, request id) so FrameFloor
	// notifies can tighten exactly the scan they target.
	floorMu sync.Mutex
	floors  map[floorKey]*strategy.FocusFloorShare
}

type floorKey struct {
	sc *comms.ServerConn
	id uint64
}

// shardState is one epoch's partition plus its lazily built strategy
// instances. Strategies are safe for concurrent use, so one instance per
// configuration serves every in-flight query of the epoch.
type shardState struct {
	epoch uint64
	lo    int // resolved range, for registration replies
	hi    int
	impls int // full library size at this epoch
	part  *goalrec.Library

	mu      sync.Mutex
	focus   map[strategy.FocusMeasure]*strategy.Focus
	breadth map[strategy.BreadthWeighting]*strategy.Breadth
	best    map[vectorspace.Metric]*strategy.BestMatch
}

// NewWorker builds a worker serving engine's [Lo, Hi) range.
func NewWorker(engine *goalrec.Engine, cfg WorkerConfig) *Worker {
	w := &Worker{
		engine: engine,
		cfg:    cfg,
		floors: make(map[floorKey]*strategy.FocusFloorShare),
	}
	w.srv = comms.NewServer(w.handle, w.handleNotify, FrameFloor)
	return w
}

// Serve accepts coordinator connections on ln until Close.
func (w *Worker) Serve(ln net.Listener) error { return w.srv.Serve(ln) }

// Close shuts the comms server down, canceling in-flight queries.
func (w *Worker) Close() { w.srv.Close() }

func (w *Worker) logf(format string, args ...interface{}) {
	if w.cfg.Logger != nil {
		w.cfg.Logger.Printf(format, args...)
	}
}

// currentShard returns the partition of the engine's current epoch, cutting
// it when the epoch moved without a commit (an ingest, a local reload).
func (w *Worker) currentShard() (*shardState, error) {
	w.shardMu.Lock()
	defer w.shardMu.Unlock()
	snap := w.engine.Snapshot()
	if w.shard != nil && w.shard.epoch == snap.Epoch() {
		return w.shard, nil
	}
	sh, err := w.cut(snap)
	if err != nil {
		return nil, err
	}
	sh.epoch = snap.Epoch()
	w.shard = sh
	w.logf("cluster worker: serving [%d, %d) of %d implementations at epoch %d",
		sh.lo, sh.hi, sh.impls, sh.epoch)
	return sh, nil
}

// cut partitions lib down to the configured range, logging any shard file
// decision but a hit the way the daemon logs sidecar decisions. The caller
// stamps the epoch the partition will serve.
func (w *Worker) cut(lib *goalrec.Library) (*shardState, error) {
	lo, hi, n := w.cfg.Lo, w.cfg.Hi, lib.NumImplementations()
	if hi < 0 {
		hi = n
	}
	part, decision, err := lib.PartitionMapped(lo, w.cfg.Hi)
	if err != nil {
		return nil, fmt.Errorf("cluster: partitioning [%d, %d) of %d implementations: %w", lo, hi, n, err)
	}
	if decision != "" && decision != goalrec.SidecarHit {
		w.logf("cluster worker: shard [%d, %d) %s", lo, hi, decision)
	}
	return &shardState{
		lo:      lo,
		hi:      hi,
		impls:   n,
		part:    part,
		focus:   make(map[strategy.FocusMeasure]*strategy.Focus),
		breadth: make(map[strategy.BreadthWeighting]*strategy.Breadth),
		best:    make(map[vectorspace.Metric]*strategy.BestMatch),
	}, nil
}

func (s *shardState) focusFor(m strategy.FocusMeasure) *strategy.Focus {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.focus[m]; ok {
		return f
	}
	f := strategy.NewFocus(s.part.Core(), m)
	s.focus[m] = f
	return f
}

func (s *shardState) breadthFor(w strategy.BreadthWeighting) *strategy.Breadth {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.breadth[w]; ok {
		return b
	}
	b := strategy.NewBreadthWeighted(s.part.Core(), w)
	s.breadth[w] = b
	return b
}

func (s *shardState) bestFor(m vectorspace.Metric) *strategy.BestMatch {
	s.mu.Lock()
	defer s.mu.Unlock()
	if bm, ok := s.best[m]; ok {
		return bm
	}
	bm := strategy.NewBestMatchMetric(s.part.Core(), m)
	s.best[m] = bm
	return bm
}

// handleNotify routes FrameFloor broadcasts into the targeted in-flight
// Focus scan. A notify for an unknown request id (the scan already
// finished, or this worker was the broadcast's source) is dropped — floors
// only ever tighten, so a missed one costs speed, never correctness.
func (w *Worker) handleNotify(sc *comms.ServerConn, f comms.Frame) {
	var n floorNotify
	if err := json.Unmarshal(f.Payload, &n); err != nil {
		return
	}
	w.floorMu.Lock()
	share := w.floors[floorKey{sc, f.RequestID}]
	w.floorMu.Unlock()
	if share == nil {
		return
	}
	switch n.Measure {
	case "cmp":
		share.InjectCompleteness(n.C, n.N)
	case "cl":
		share.InjectCloseness(n.Missing)
	}
}

// handle serves one request frame. It runs on its own goroutine; ctx is
// canceled by a TypeCancel from the coordinator (deadline propagation), a
// dropped connection, or worker shutdown.
func (w *Worker) handle(ctx context.Context, sc *comms.ServerConn, f comms.Frame) (uint8, []byte) {
	switch f.Type {
	case FrameRegister, FrameHeartbeat:
		return w.handleRegister(f)
	case FrameFocus:
		return w.handleFocus(ctx, sc, f)
	case FrameBreadth:
		return w.handleBreadth(ctx, f)
	case FrameBMSurvey:
		return w.handleBMSurvey(ctx, f)
	case FrameBMVectors:
		return w.handleBMVectors(ctx, f)
	case FramePrepare:
		return w.handlePrepare(f)
	case FrameCommit:
		return w.handleCommit(f)
	case FrameAbort:
		return w.handleAbort(f)
	}
	return errFrame(fmt.Errorf("unknown frame type %d", f.Type))
}

func (w *Worker) handleRegister(f comms.Frame) (uint8, []byte) {
	sh, err := w.currentShard()
	if err != nil {
		return errFrame(err)
	}
	return f.Type, mustJSON(registerResponse{
		Epoch: sh.epoch,
		Vocab: w.engine.Snapshot().VocabChecksum(),
		Lo:    sh.lo,
		Hi:    sh.hi,
		Impls: sh.impls,
	})
}

func (w *Worker) handleFocus(ctx context.Context, sc *comms.ServerConn, f comms.Frame) (uint8, []byte) {
	var req focusRequest
	if err := json.Unmarshal(f.Payload, &req); err != nil {
		return errFrame(err)
	}
	var measure strategy.FocusMeasure
	switch req.Measure {
	case "cmp":
		measure = strategy.Completeness
	case "cl":
		measure = strategy.Closeness
	default:
		return errFrame(fmt.Errorf("unknown focus measure %q", req.Measure))
	}
	sh, err := w.currentShard()
	if err != nil {
		return errFrame(err)
	}

	// Register the floor share before scanning so a broadcast racing the
	// scan's start still lands.
	share := strategy.NewFocusFloorShare()
	key := floorKey{sc, f.RequestID}
	w.floorMu.Lock()
	w.floors[key] = share
	w.floorMu.Unlock()
	defer func() {
		w.floorMu.Lock()
		delete(w.floors, key)
		w.floorMu.Unlock()
	}()

	emissions, err := sh.focusFor(measure).TopEmissions(ctx, req.Activity, req.K, int64(sh.lo), share)
	if err != nil {
		return errFrame(err)
	}
	return f.Type, mustJSON(focusResponse{
		Epoch:       sh.epoch,
		Emissions:   emissions,
		Tightenings: share.Tightenings(),
	})
}

func (w *Worker) handleBreadth(ctx context.Context, f comms.Frame) (uint8, []byte) {
	var req breadthRequest
	if err := json.Unmarshal(f.Payload, &req); err != nil {
		return errFrame(err)
	}
	weighting, err := strategy.ParseBreadthWeighting(req.Weighting)
	if err != nil {
		return errFrame(err)
	}
	sh, err := w.currentShard()
	if err != nil {
		return errFrame(err)
	}
	partial, err := sh.breadthFor(weighting).ShardPartial(ctx, req.Activity)
	if err != nil {
		return errFrame(err)
	}
	return f.Type, mustJSON(breadthResponse{Epoch: sh.epoch, Partial: partial})
}

func (w *Worker) handleBMSurvey(ctx context.Context, f comms.Frame) (uint8, []byte) {
	var req bmSurveyRequest
	if err := json.Unmarshal(f.Payload, &req); err != nil {
		return errFrame(err)
	}
	sh, err := w.currentShard()
	if err != nil {
		return errFrame(err)
	}
	// The survey is metric-independent; use the cosine instance.
	survey, err := sh.bestFor(vectorspace.Cosine).ShardSurvey(ctx, req.Activity)
	if err != nil {
		return errFrame(err)
	}
	return f.Type, mustJSON(bmSurveyResponse{Epoch: sh.epoch, Survey: survey})
}

func (w *Worker) handleBMVectors(ctx context.Context, f comms.Frame) (uint8, []byte) {
	var req bmVectorsRequest
	if err := json.Unmarshal(f.Payload, &req); err != nil {
		return errFrame(err)
	}
	sh, err := w.currentShard()
	if err != nil {
		return errFrame(err)
	}
	vectors, err := sh.bestFor(vectorspace.Cosine).ShardVectors(ctx, req.Candidates, req.GoalSpace)
	if err != nil {
		return errFrame(err)
	}
	return f.Type, mustJSON(bmVectorsResponse{Epoch: sh.epoch, Vectors: vectors})
}

// errNoReloader marks a prepare against a worker without a library source.
var errNoReloader = errors.New("no reloader configured")

func (w *Worker) handlePrepare(f comms.Frame) (uint8, []byte) {
	if w.cfg.Reload == nil {
		return errFrame(errNoReloader)
	}
	lib, err := w.cfg.Reload()
	if err != nil {
		return errFrame(fmt.Errorf("prepare: %w", err))
	}
	// Cut the partition now, outside the window in which the cluster's
	// nodes disagree on the epoch: a range the new library cannot serve
	// fails the prepare, and the coordinator aborts the swap everywhere.
	sh, err := w.cut(lib)
	if err != nil {
		return errFrame(fmt.Errorf("prepare: %w", err))
	}
	w.stagedMu.Lock()
	w.staged, w.stagedShard = lib, sh
	w.stagedMu.Unlock()
	w.logf("cluster worker: staged %d implementations for swap", lib.NumImplementations())
	return f.Type, mustJSON(prepareResponse{
		Impls: lib.NumImplementations(),
		Vocab: lib.VocabChecksum(),
	})
}

func (w *Worker) handleCommit(f comms.Frame) (uint8, []byte) {
	w.stagedMu.Lock()
	lib, sh := w.staged, w.stagedShard
	w.staged, w.stagedShard = nil, nil
	w.stagedMu.Unlock()
	if lib == nil {
		return errFrame(errors.New("commit without a staged epoch"))
	}
	w.shardMu.Lock()
	sh.epoch = w.engine.Swap(lib).Epoch()
	w.shard = sh
	w.shardMu.Unlock()
	w.logf("cluster worker: committed swap at epoch %d, serving [%d, %d) of %d implementations",
		sh.epoch, sh.lo, sh.hi, sh.impls)
	return f.Type, mustJSON(commitResponse{Epoch: sh.epoch, Lo: sh.lo, Hi: sh.hi, Impls: sh.impls})
}

func (w *Worker) handleAbort(f comms.Frame) (uint8, []byte) {
	w.stagedMu.Lock()
	had := w.staged != nil
	w.staged, w.stagedShard = nil, nil
	w.stagedMu.Unlock()
	if had {
		w.logf("cluster worker: aborted staged swap")
	}
	return f.Type, mustJSON(struct{}{})
}
