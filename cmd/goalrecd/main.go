// Command goalrecd serves goal-based recommendations over HTTP.
//
//	goalrecd -library recipes.jsonl -addr :8080 -watch 10s
//
// Endpoints (JSON):
//
//	GET  /healthz
//	GET  /readyz                  readiness: 503 while draining for shutdown
//	GET  /v1/stats
//	GET  /v1/metrics              per-endpoint request/error + lifecycle counters
//	POST /v1/recommend            {"activity": ["potatoes"], "strategy": "breadth", "k": 10}
//	POST /v1/spaces               {"activity": ["potatoes"]}
//	POST /v1/explain              {"activity": ["potatoes"], "action": "pickles"}
//	POST /v1/implementations      live-ingest a batch of implementations
//	POST /v1/reload               re-read the library file and swap it in
//	POST /v1/users/{id}/actions   append to a stored per-user history
//	GET  /v1/users/{id}/recommend score a stored history (materialized view)
//	DELETE /v1/users/{id}         forget a user
//
// The daemon always serves the per-user store; -user-capacity caps tracked
// users and -user-views caps concurrently materialized counter views (the
// LRU bound on per-user scoring state). With -snapshot-dir user appends and
// deletes are journaled to the same WAL as ingests and recovered on restart.
//
// Every response carries the epoch it was answered from; ingests and
// reloads advance the epoch without interrupting in-flight requests. With
// -watch the daemon polls the library file and hot-swaps it when it
// changes; a file that fails to load is logged and the current epoch keeps
// serving, with exponential-backoff retries until the load heals.
//
// A JSON-lines -library is parsed once per content and mapped on every
// start: the daemon keeps a snapshot of it at <path>.gsnp, keyed by the
// SHA-256 of the file's bytes and the layout, rebuilds it when it is missing,
// stale or fails its checksum (one log line gives the reason), and serves the
// library from that mapping in every role and on every reload. If the
// sidecar cannot be written the parsed library is served from the heap.
// A worker keeps its shard the same way, at <path>.shard-<lo>-<hi|end>.gsnp
// keyed by the sidecar's key plus the resolved range, so it maps both files
// and holds no partition on the heap; a shard file that cannot be written,
// or a library that did not come from a sidecar (a store, an ingest since),
// is partitioned on the heap. Deleting either file is always safe; mapped
// generations stay mapped until the process exits (/v1/metrics, "library").
//
// With -snapshot-dir the daemon is durable: it recovers from the newest
// memory-mapped snapshot in the directory plus the ingest WAL's tail, then
// journals every /v1/implementations batch to the WAL before applying it.
// Restarting the process resumes at the exact epoch it last acknowledged.
// -library then becomes an optional seed, used only when the directory is
// empty. -wal-sync fsyncs each WAL append; -compact-wal-bytes sets the WAL
// size that triggers background compaction into a fresh snapshot;
// -scrub-interval re-verifies snapshot checksums and WAL frame CRCs
// periodically, quarantining corrupt snapshots (renamed to *.quarantine,
// never deleted) and falling back a generation.
//
// Storage faults degrade the store instead of killing it: a persistent
// write failure flips it read-only — ingests and user writes answer 503
// with Retry-After while reads keep serving — and a background write probe
// restores writes automatically once the disk heals. /readyz reports
// "degraded" (still 200) and both /readyz and /v1/metrics carry a "storage"
// block with the mode, last error and quarantined files.
//
// -request-timeout bounds every request (504 on expiry) and -max-inflight
// caps concurrent expensive requests, shedding the excess as 503 +
// Retry-After.
//
// -role worker additionally serves a shard of the library to a coordinator
// over -cluster-addr; -role coordinator is the same server over a
// scatter-gather backend instead of the local engine (cluster.go has a
// worked example). One listener, drain and shutdown path serves every role,
// so -request-timeout, -max-inflight, -admission-wait, -quiet and -pprof-addr
// mean the same thing in each. A coordinator answers the recommendation,
// probe, stats, metrics and reload endpoints — POST /v1/reload there is the
// cluster-wide two-phase swap, which is why -watch is refused with it.
// -quiet silences the request log only: every 5xx is still logged with its
// cause and the epochs the node (or the coordinator and its workers) was at.
//
// -pprof-addr starts a second listener serving net/http/pprof (off by
// default). Keeping the profiler off the serving address means it is never
// exposed to recommendation traffic and can be bound to localhost while the
// API listens publicly.
//
// The process shuts down gracefully on SIGINT/SIGTERM: /readyz flips to
// 503 (draining) so load balancers stop routing here, then in-flight
// requests get up to 10s to finish.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"goalrec"
	"goalrec/internal/cluster"
	"goalrec/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "goalrecd:", err)
		os.Exit(1)
	}
}

// loadLibrary is the single load path — initial load, /v1/reload, the
// -watch loop and a cluster's two-phase swap, in every role — so all of them
// apply the same layout policy and serve a JSON-lines file from its mapped
// sidecar snapshot (goalrec.LoadLibraryFileMapped). Anything but a sidecar
// hit is logged with its reason.
func loadLibrary(logger *log.Logger, path string, impactOrdering bool) (*goalrec.Library, error) {
	lib, decision, err := goalrec.LoadLibraryFileMapped(path, impactOrdering)
	if err != nil {
		return nil, err
	}
	if decision != "" && decision != goalrec.SidecarHit {
		logger.Printf("library %s: sidecar %s", path, decision)
	}
	return lib, nil
}

func run() error {
	libPath := flag.String("library", "", "path to the library file; a JSON-lines file is served from a memory-mapped snapshot kept beside it at <path>.gsnp, and a worker's shard from one at <path>.shard-<lo>-<hi|end>.gsnp, each rebuilt when stale (deleting them is always safe)")
	addr := flag.String("addr", ":8080", "listen address")
	quiet := flag.Bool("quiet", false, "disable request logging")
	watch := flag.Duration("watch", 0, "poll the library file at this interval and hot-swap on change (0 disables)")
	requestTimeout := flag.Duration("request-timeout", 0, "per-request deadline; expired requests answer 504 (0 disables)")
	maxInflight := flag.Int("max-inflight", 0, "max concurrent expensive requests; excess is shed as 503 (0 disables)")
	admissionWait := flag.Duration("admission-wait", 10*time.Millisecond, "how long an over-limit request may wait for a slot before being shed (needs -max-inflight)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty disables)")
	impactOrdering := flag.Bool("impact-ordering", false, "re-lay-out each loaded library in impact order; bounded Focus queries then take the block-max scan (counters in /v1/metrics)")
	snapshotDir := flag.String("snapshot-dir", "", "durable store directory: mmap snapshots + ingest WAL (empty disables persistence)")
	walSync := flag.Bool("wal-sync", false, "fsync every WAL append (needs -snapshot-dir)")
	compactWALBytes := flag.Int64("compact-wal-bytes", 0, "WAL size that triggers background compaction into a snapshot; 0 selects the default (needs -snapshot-dir)")
	scrubInterval := flag.Duration("scrub-interval", 0, "re-verify snapshot checksums and WAL CRCs at this interval, quarantining corrupt snapshots; 0 disables the periodic scrub (needs -snapshot-dir; the open-time scrub always runs)")
	userCapacity := flag.Int("user-capacity", 0, "max tracked users in the per-user store; 0 selects the default")
	userViews := flag.Int("user-views", 0, "max concurrently materialized per-user counter views; 0 selects the default")
	role := flag.String("role", "", `cluster role: "" (single node), "coordinator" (scatter-gather front end over -peers) or "worker" (shard server on -cluster-addr)`)
	clusterAddr := flag.String("cluster-addr", "", "cluster comms listen address (worker role)")
	peersFlag := flag.String("peers", "", "comma-separated worker comms addresses (coordinator role)")
	shardRange := flag.String("shard-range", "0:-1", `implementation range "lo:hi" this worker serves; hi -1 means "to the end of the library" (worker role)`)
	partialFailure := flag.String("partial-failure", "degraded", `coordinator policy when a shard cannot answer: "degraded" (serve the reachable shards, flagged) or "fail" (fail the query)`)
	heartbeat := flag.Duration("heartbeat", 2*time.Second, "coordinator-to-worker heartbeat interval")
	scatterTimeout := flag.Duration("scatter-timeout", 0, "per-scatter deadline on worker round-trips (0 disables; coordinator role)")
	flag.Parse()
	peers := splitPeers(*peersFlag)
	if err := checkRoleFlags(*role); err != nil {
		return err
	}
	var lo, hi int
	if *role == "worker" {
		var err error
		if lo, hi, err = parseShardRange(*shardRange); err != nil {
			return err
		}
	}
	switch {
	case *role != "" && *role != "worker" && *role != "coordinator":
		return fmt.Errorf("unknown -role %q (want \"\", \"coordinator\" or \"worker\")", *role)
	case *role == "worker" && *clusterAddr == "":
		return errors.New("-role worker needs -cluster-addr")
	case *role == "coordinator" && *libPath == "":
		// The coordinator never scans, so it has no store; it needs only a
		// full copy of the artifact for name resolution.
		return errors.New("-role coordinator needs -library")
	case *role == "coordinator" && len(peers) == 0:
		return errors.New("-role coordinator needs -peers")
	case *role == "coordinator" && *watch > 0:
		// A coordinator swaps in lockstep with its workers; a local poll
		// would move its copy alone.
		return errors.New("-watch does not apply to -role coordinator: POST /v1/reload drives the cluster-wide swap")
	case *libPath == "" && *snapshotDir == "":
		return errors.New("one of -library or -snapshot-dir is required")
	case *watch > 0 && *libPath == "":
		return errors.New("-watch needs -library")
	}

	logger := log.New(os.Stderr, "goalrecd: ", log.LstdFlags)
	reqLogger := logger
	if *quiet {
		reqLogger = nil
	}

	reload := func() (*goalrec.Library, error) { return loadLibrary(logger, *libPath, *impactOrdering) }
	var opts []server.Option
	if *libPath != "" {
		opts = append(opts, server.WithReloader(reload))
	}
	if *requestTimeout > 0 {
		opts = append(opts, server.WithRequestTimeout(*requestTimeout))
	}
	if *maxInflight > 0 {
		opts = append(opts, server.WithMaxInflight(*maxInflight), server.WithAdmissionWait(*admissionWait))
	}

	userOpts := goalrec.UserStoreOptions{MaxUsers: *userCapacity, MaxViews: *userViews}

	// One front end in every role; what differs is the backend behind it.
	// closeBackend runs only after the HTTP server has fully drained: readers
	// may hold mapped snapshot memory, and a coordinator's in-flight queries
	// their worker connections, until their requests finish.
	var api *server.Server
	var engine *goalrec.Engine
	closeBackend := func() {}
	switch {
	case *role == "coordinator":
		policy, err := cluster.ParsePartialFailurePolicy(*partialFailure)
		if err != nil {
			return err
		}
		lib, err := reload()
		if err != nil {
			return err
		}
		logger.Printf("coordinator loaded library: %s", lib.Stats())
		co := cluster.NewCoordinator(goalrec.NewEngineFromLibrary(lib), cluster.CoordinatorConfig{
			Peers:          peers,
			PartialFailure: policy,
			ScatterTimeout: *scatterTimeout,
			Reload:         reload,
			Logger:         logger,
		})
		stopHeartbeat := co.StartHeartbeat(*heartbeat)
		closeBackend = func() {
			stopHeartbeat()
			co.Close()
		}
		logger.Printf("coordinator over %d workers, policy %q", len(peers), policy)
		api = server.NewFromBackend(co, reqLogger, opts...)
	case *snapshotDir != "":
		store, err := goalrec.OpenStore(*snapshotDir, goalrec.StoreOptions{
			SyncWAL:           *walSync,
			CompactAtWALBytes: *compactWALBytes,
			ScrubInterval:     *scrubInterval,
			Logger:            logger,
			Users:             userOpts,
		})
		if err != nil {
			return err
		}
		engine = store.Engine()
		logger.Printf("recovered store %s at epoch %d: %s", *snapshotDir, engine.Epoch(), engine.Snapshot().Stats())
		// -library seeds an empty store only; a recovered lineage wins over
		// the seed file so restarts never roll acknowledged ingests back.
		if engine.Len() == 0 && *libPath != "" {
			lib, err := reload()
			if err != nil {
				store.Close()
				return err
			}
			engine.Swap(lib)
			if err := store.Err(); err != nil {
				store.Close()
				return err
			}
			logger.Printf("seeded store from %s: %s", *libPath, lib.Stats())
		}
		if n := store.Users().Len(); n > 0 {
			logger.Printf("recovered %d users from the WAL", n)
		}
		closeBackend = func() {
			if err := store.Close(); err != nil {
				logger.Printf("closing store: %v", err)
			}
		}
		opts = append(opts, server.WithUserStore(store.Users()), server.WithStore(store))
		api = server.NewFromEngine(engine, reqLogger, opts...)
	default:
		lib, err := reload()
		if err != nil {
			return err
		}
		logger.Printf("loaded library: %s", lib.Stats())
		engine = goalrec.NewEngineFromLibrary(lib)
		opts = append(opts, server.WithUserStore(goalrec.NewUserStore(engine, userOpts)))
		api = server.NewFromEngine(engine, reqLogger, opts...)
	}
	// The error log — every 5xx with its cause and epochs, every recovered
	// panic — is not the request log: -quiet does not silence it.
	api.SetErrorLog(logger)

	// In the worker role the daemon additionally serves its shard over the
	// cluster comms protocol — same engine, same epochs, so the node keeps
	// its full single-node HTTP surface (handy for debugging a shard
	// directly) while answering coordinator scatters.
	var clusterWorker *cluster.Worker
	if *role == "worker" {
		if n := engine.Len(); lo > n || hi > n {
			closeBackend()
			return fmt.Errorf("-shard-range %q lies outside the library's %d implementations", *shardRange, n)
		}
		wcfg := cluster.WorkerConfig{Lo: lo, Hi: hi, Logger: logger}
		if *libPath != "" {
			wcfg.Reload = reload
		}
		clusterWorker = cluster.NewWorker(engine, wcfg)
		ln, err := net.Listen("tcp", *clusterAddr)
		if err != nil {
			closeBackend()
			return fmt.Errorf("cluster listener: %w", err)
		}
		go func() {
			logger.Printf("cluster worker serving [%d, %d) on %s", lo, hi, *clusterAddr)
			clusterWorker.Serve(ln)
		}()
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           api,
		ReadHeaderTimeout: 5 * time.Second,
	}

	var pprofSrv *http.Server
	if *pprofAddr != "" {
		// The profiler gets its own mux and listener: nothing pprof-related
		// is ever routable through the serving address.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv = &http.Server{
			Addr:              *pprofAddr,
			Handler:           pmux,
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			logger.Printf("pprof listening on %s", *pprofAddr)
			if err := pprofSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				logger.Printf("pprof listener failed: %v", err)
			}
		}()
	}

	stopWatch := func() {}
	if *watch > 0 {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		w := newLibraryWatcher(api, logger, *libPath, *watch)
		go func() {
			defer close(done)
			w.run(ctx)
		}()
		stopWatch = func() {
			cancel()
			<-done
		}
	}

	errCh := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s", *addr)
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
			return
		}
		errCh <- nil
	}()

	// One way down, whether the listener failed or a signal arrived: stop
	// what feeds the engine from outside HTTP, drain, then close the backend.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	var serveErr error
	select {
	case serveErr = <-errCh:
	case sig := <-stop:
		// Flip to draining first so /readyz tells load balancers to stop
		// routing here while in-flight requests finish.
		api.SetDraining(true)
		logger.Printf("received %v, draining and shutting down", sig)
	}
	if clusterWorker != nil {
		clusterWorker.Close()
	}
	stopWatch()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if pprofSrv != nil {
		_ = pprofSrv.Shutdown(ctx)
	}
	err := srv.Shutdown(ctx)
	closeBackend()
	switch {
	case serveErr != nil:
		return serveErr
	case err != nil:
		return err
	}
	return <-errCh
}

// libraryWatcher polls a library file and hot-swaps it into the server
// when it changes. Failures keep the current epoch serving and are retried
// with exponential backoff and jitter; transitions between healthy and
// failing are logged once, plus every logEveryNth failure while the streak
// lasts — a persistently broken file produces a heartbeat, not a log line
// per poll.
type libraryWatcher struct {
	target   *server.Server // its Reload re-reads path
	logger   *log.Logger
	path     string
	interval time.Duration

	stat func(path string) (os.FileInfo, error) // os.Stat outside tests

	logEveryNth int
	maxBackoff  time.Duration
	rng         *rand.Rand
}

func newLibraryWatcher(target *server.Server, logger *log.Logger, path string, interval time.Duration) *libraryWatcher {
	return &libraryWatcher{
		target:      target,
		logger:      logger,
		path:        path,
		interval:    interval,
		stat:        os.Stat,
		logEveryNth: 5,
		maxBackoff:  32 * interval,
		rng:         rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

type fileState struct {
	mtime time.Time
	size  int64
}

func (w *libraryWatcher) run(ctx context.Context) {
	var last fileState
	if fi, err := w.stat(w.path); err == nil {
		last = fileState{fi.ModTime(), fi.Size()}
	}
	backoff := w.interval
	failing := false
	for {
		delay := w.interval
		if failing {
			// Exponential backoff with ±20% jitter so a fleet of watchers
			// does not hammer a shared source in lockstep.
			delay = time.Duration(float64(backoff) * (0.8 + 0.4*w.rng.Float64()))
		}
		t := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			t.Stop()
			return
		case <-t.C:
		}

		// A file that cannot be stat'ed is handed to Reload all the same: its
		// load fails, and the failure is accounted where every other one is.
		if fi, err := w.stat(w.path); err == nil {
			cur := fileState{fi.ModTime(), fi.Size()}
			// While healthy, an unchanged file means nothing to do. While
			// failing, retry even an unchanged file: partial writes and
			// permission hiccups heal without the mtime moving.
			if cur == last && !failing {
				continue
			}
			last = cur
		}
		epoch, implementations, err := w.target.Reload(ctx)
		if err != nil {
			streak := w.target.ReloadFailureStreak()
			if !failing {
				failing = true
				backoff = w.interval
				w.logger.Printf("watch: %s failing: %v (keeping epoch %d)", w.path, err, w.target.Epoch())
			} else {
				backoff = min(2*backoff, w.maxBackoff)
				if w.logEveryNth > 0 && streak%int64(w.logEveryNth) == 0 {
					w.logger.Printf("watch: %s still failing after %d attempts: %v (keeping epoch %d)",
						w.path, streak, err, w.target.Epoch())
				}
			}
			continue
		}
		if failing {
			failing = false
			w.logger.Printf("watch: %s recovered", w.path)
		}
		w.logger.Printf("watch: swapped in %s (%d implementations) at epoch %d",
			w.path, implementations, epoch)
	}
}
