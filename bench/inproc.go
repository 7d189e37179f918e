package main

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"

	"goalrec"
	"goalrec/internal/cluster"
	"goalrec/internal/server"
)

// The constructors below wire the layers the way cmd/goalrecd does with its
// default flags. The traced run times them in-process; the tier-1 smoke test
// serves them over loopback in place of child processes.

// newSingleNode mirrors goalrecd without -snapshot-dir.
func newSingleNode(lib *goalrec.Library) (*server.Server, *goalrec.Engine) {
	engine := goalrec.NewEngineFromLibrary(lib)
	users := goalrec.NewUserStore(engine, goalrec.UserStoreOptions{})
	return server.NewFromEngine(engine, nil, server.WithUserStore(users)), engine
}

// newDurableNode mirrors goalrecd -snapshot-dir on an empty directory seeded
// from lib.
func newDurableNode(dir string, lib *goalrec.Library) (*server.Server, *goalrec.Store, error) {
	store, err := goalrec.OpenStore(dir, goalrec.StoreOptions{})
	if err != nil {
		return nil, nil, err
	}
	engine := store.Engine()
	engine.Swap(lib)
	if err := store.Err(); err != nil {
		store.Close()
		return nil, nil, err
	}
	api := server.NewFromEngine(engine, nil, server.WithUserStore(store.Users()), server.WithStore(store))
	return api, store, nil
}

// inprocCluster is a coordinator over two workers, each on its own engine
// and loopback TCP listener, as separate processes would be.
type inprocCluster struct {
	co      *cluster.Coordinator
	workers []*cluster.Worker
	lns     []net.Listener
}

func startInprocCluster(lib *goalrec.Library) (*inprocCluster, error) {
	c := &inprocCluster{}
	half := lib.NumImplementations() / 2
	var peers []string
	for _, r := range [][2]int{{0, half}, {half, -1}} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.stop()
			return nil, err
		}
		w := cluster.NewWorker(goalrec.NewEngineFromLibrary(lib), cluster.WorkerConfig{Lo: r[0], Hi: r[1]})
		c.workers = append(c.workers, w)
		c.lns = append(c.lns, ln)
		peers = append(peers, ln.Addr().String())
		go func() { _ = w.Serve(ln) }() // returns when stop closes the worker
	}
	c.co = cluster.NewCoordinator(goalrec.NewEngineFromLibrary(lib), cluster.CoordinatorConfig{Peers: peers})
	return c, nil
}

func (c *inprocCluster) stop() {
	if c.co != nil {
		c.co.Close()
	}
	for _, w := range c.workers {
		w.Close()
	}
	for _, ln := range c.lns {
		ln.Close()
	}
}

// inprocLauncher serves the in-process nodes over loopback HTTP. Every
// deployment loads its own copy of the library, as a daemon process would:
// engines that ingest must not share a vocabulary with the checker's replica.
type inprocLauncher struct {
	libPath string
	workDir string
	seq     int
}

func (l *inprocLauncher) deploy(topo topology) (*deployment, error) {
	lib, err := goalrec.LoadLibraryFile(l.libPath)
	if err != nil {
		return nil, err
	}
	d := &deployment{}
	var handler http.Handler
	var cleanup func()
	switch topo {
	case topoSingle:
		handler, _ = newSingleNode(lib)
	case topoDurable:
		l.seq++
		d.snapDir = filepath.Join(l.workDir, fmt.Sprintf("store-%d", l.seq))
		if err := os.Mkdir(d.snapDir, 0o755); err != nil {
			return nil, err
		}
		api, store, err := newDurableNode(d.snapDir, lib)
		if err != nil {
			return nil, err
		}
		handler, cleanup = api, func() { store.Close() }
	case topoCluster:
		c, err := startInprocCluster(lib)
		if err != nil {
			return nil, err
		}
		handler, cleanup = cluster.NewHTTPHandler(c.co), c.stop
	}
	srv := httptest.NewServer(handler)
	d.front = srv.URL
	d.shutdown = func() {
		srv.Close()
		if cleanup != nil {
			cleanup()
		}
	}
	return d, nil
}
