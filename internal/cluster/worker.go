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
}

// shardState is one epoch's partition plus the strategy instances the
// coordinator scatters to it, built at cut time. Strategies are safe for
// concurrent use, so one instance each serves every in-flight query of the
// epoch. Registration, heartbeat and commit replies are read from one
// shardState, so the epoch, range and vocabulary they report always belong to
// the same library.
type shardState struct {
	epoch uint64
	lo    int // resolved range, for registration replies
	hi    int
	impls int    // full library size at this epoch
	vocab uint64 // vocabulary checksum of the library the shard was cut from
	part  *goalrec.Library

	focusCmp, focusCl *strategy.Focus
	breadth           *strategy.Breadth // the coordinator scatters overlap only
	// best serves both Best Match rounds: the survey and the vectors are
	// metric-independent, and the coordinator applies the metric at merge.
	best *strategy.BestMatch
}

// NewWorker builds a worker serving engine's [Lo, Hi) range.
func NewWorker(engine *goalrec.Engine, cfg WorkerConfig) *Worker {
	w := &Worker{engine: engine, cfg: cfg}
	w.srv = comms.NewServer(w.handle)
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
	c := part.Core()
	return &shardState{
		lo:       lo,
		hi:       hi,
		impls:    n,
		vocab:    lib.VocabChecksum(),
		part:     part,
		focusCmp: strategy.NewFocus(c, strategy.Completeness),
		focusCl:  strategy.NewFocus(c, strategy.Closeness),
		breadth:  strategy.NewBreadthWeighted(c, strategy.Overlap),
		best:     strategy.NewBestMatchMetric(c, strategy.Cosine),
	}, nil
}

// handle serves one request frame. It runs on its own goroutine; ctx is
// canceled by a TypeCancel from the coordinator (deadline propagation), a
// dropped connection, or worker shutdown.
func (w *Worker) handle(ctx context.Context, _ *comms.ServerConn, f comms.Frame) (uint8, []byte) {
	switch f.Type {
	case FrameRegister, FrameHeartbeat:
		return w.handleRegister(f)
	case FrameFocus:
		return w.handleFocus(ctx, f)
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
		Vocab: sh.vocab,
		Lo:    sh.lo,
		Hi:    sh.hi,
		Impls: sh.impls,
	})
}

func (w *Worker) handleFocus(ctx context.Context, f comms.Frame) (uint8, []byte) {
	var req focusRequest
	if err := json.Unmarshal(f.Payload, &req); err != nil {
		return errFrame(err)
	}
	sh, err := w.currentShard()
	if err != nil {
		return errFrame(err)
	}
	var focus *strategy.Focus
	switch req.Measure {
	case "cmp":
		focus = sh.focusCmp
	case "cl":
		focus = sh.focusCl
	default:
		return errFrame(fmt.Errorf("unknown focus measure %q", req.Measure))
	}
	emissions, err := focus.TopEmissions(ctx, req.Activity, req.K, int64(sh.lo))
	if err != nil {
		return errFrame(err)
	}
	return f.Type, mustJSON(focusResponse{shardEpoch{sh.epoch}, emissions})
}

func (w *Worker) handleBreadth(ctx context.Context, f comms.Frame) (uint8, []byte) {
	var req breadthRequest
	if err := json.Unmarshal(f.Payload, &req); err != nil {
		return errFrame(err)
	}
	sh, err := w.currentShard()
	if err != nil {
		return errFrame(err)
	}
	partial, err := sh.breadth.ShardPartial(ctx, req.Activity)
	if err != nil {
		return errFrame(err)
	}
	return f.Type, mustJSON(breadthResponse{shardEpoch{sh.epoch}, partial})
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
	survey, err := sh.best.ShardSurvey(ctx, req.Activity)
	if err != nil {
		return errFrame(err)
	}
	return f.Type, mustJSON(bmSurveyResponse{shardEpoch{sh.epoch}, survey})
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
	vectors, err := sh.best.ShardVectors(ctx, req.Candidates, req.GoalSpace)
	if err != nil {
		return errFrame(err)
	}
	return f.Type, mustJSON(bmVectorsResponse{shardEpoch{sh.epoch}, vectors})
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
		Impls: sh.impls,
		Vocab: sh.vocab,
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
