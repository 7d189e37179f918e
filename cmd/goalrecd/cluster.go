// Cluster-role wiring: -role worker adds a comms listener to the normal
// daemon (see main.go); -role coordinator runs the scatter-gather front end
// implemented in internal/cluster.
//
// A local 3-node cluster:
//
//	goalrecd -role worker -library recipes.jsonl -addr :8081 -cluster-addr :7071 -shard-range 0:1000 &
//	goalrecd -role worker -library recipes.jsonl -addr :8082 -cluster-addr :7072 -shard-range 1000:2000 &
//	goalrecd -role worker -library recipes.jsonl -addr :8083 -cluster-addr :7073 -shard-range 2000:-1 &
//	goalrecd -role coordinator -library recipes.jsonl -addr :8080 \
//	         -peers localhost:7071,localhost:7072,localhost:7073
//
// Every node loads the same artifact (the coordinator validates vocabulary
// checksums at registration, so a mismatched file is rejected up front) and
// the worker ranges must tile [0, NumImplementations) exactly. Rankings
// served by the coordinator are bit-identical to a single node serving the
// whole library; POST /v1/reload on the coordinator drives a cluster-wide
// two-phase snapshot swap.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"goalrec"
	"goalrec/internal/cluster"
)

// splitPeers parses the -peers comma list, dropping empty entries.
func splitPeers(s string) []string {
	var peers []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	return peers
}

// parseShardRange parses "lo:hi"; hi may be -1 for "to the end".
func parseShardRange(s string) (lo, hi int, err error) {
	before, after, found := strings.Cut(s, ":")
	if !found {
		return 0, 0, fmt.Errorf("invalid -shard-range %q (want \"lo:hi\", hi -1 for open-ended)", s)
	}
	if lo, err = strconv.Atoi(before); err != nil || lo < 0 {
		return 0, 0, fmt.Errorf("invalid -shard-range %q: bad lo", s)
	}
	if hi, err = strconv.Atoi(after); err != nil || (hi < lo && hi != -1) {
		return 0, 0, fmt.Errorf("invalid -shard-range %q: bad hi", s)
	}
	return lo, hi, nil
}

// coordinatorOptions carries the -role coordinator flag set.
type coordinatorOptions struct {
	addr           string
	libPath        string
	peers          []string
	policy         cluster.PartialFailurePolicy
	heartbeat      time.Duration
	scatterTimeout time.Duration
	impactOrdering bool
}

// runCoordinator serves the scatter-gather front end: it owns a full copy
// of the artifact for name resolution, fans every query out to the shard
// workers and merges their partials into the single-node ranking.
func runCoordinator(o coordinatorOptions) error {
	if len(o.peers) == 0 {
		return errors.New("-role coordinator needs -peers")
	}
	logger := log.New(os.Stderr, "goalrecd: ", log.LstdFlags)
	loadLib := func() (*goalrec.Library, error) { return loadLibrary(logger, o.libPath, o.impactOrdering) }
	lib, err := loadLib()
	if err != nil {
		return err
	}
	logger.Printf("coordinator loaded library: %s", lib.Stats())

	co := cluster.NewCoordinator(goalrec.NewEngineFromLibrary(lib), cluster.CoordinatorConfig{
		Peers:          o.peers,
		PartialFailure: o.policy,
		ScatterTimeout: o.scatterTimeout,
		Reload:         loadLib,
		Logger:         logger,
	})
	stopHeartbeat := co.StartHeartbeat(o.heartbeat)
	handler := cluster.NewHTTPHandler(co)
	srv := &http.Server{
		Addr:              o.addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() {
		logger.Printf("coordinator listening on %s, %d workers, policy %q", o.addr, len(o.peers), o.policy)
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
			return
		}
		errCh <- nil
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		stopHeartbeat()
		co.Close()
		return err
	case sig := <-stop:
		handler.SetDraining(true)
		logger.Printf("received %v, draining and shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		stopHeartbeat()
		co.Close()
		if err != nil {
			return err
		}
		return <-errCh
	}
}
