package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"goalrec/internal/server"
)

// startLoadWorkers spins up n in-process -serve loadgen workers and returns
// their addresses.
func startLoadWorkers(t *testing.T, n int) []string {
	t.Helper()
	lib := loadTestLibrary(t)
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
		addr := addrs[i]
		go func() {
			if err := serveLoadWorker(addr, lib); err != nil {
				// The listener dies with the test process; only log.
				t.Logf("loadgen worker %s: %v", addr, err)
			}
		}()
	}
	for _, addr := range addrs {
		waitForListener(t, addr)
	}
	return addrs
}

func waitForListener(t *testing.T, addr string) {
	t.Helper()
	for i := 0; i < 200; i++ {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			conn.Close()
			return
		}
		time.Sleep(5 * time.Millisecond) // 200 back-to-back dials can all beat the listener
	}
	t.Fatalf("loadgen worker %s never came up", addr)
}

// TestDistributedRun fans a run out over two -serve workers and checks the
// merged stats cover the full request budget.
func TestDistributedRun(t *testing.T) {
	lib := loadTestLibrary(t)
	ts := httptest.NewServer(server.New(lib, nil))
	defer ts.Close()
	workers := startLoadWorkers(t, 2)

	cfg := config{
		url: ts.URL, strategy: "breadth", k: 5,
		concurrency: 2, requests: 51, activityLen: 2, seed: 1,
		lib: lib,
	}
	stats, err := executeDistributed(cfg, workers)
	if err != nil {
		t.Fatalf("executeDistributed: %v", err)
	}
	// 51 requests split 26/25 across the two workers, all OK.
	if stats.Requests != 51 || stats.OK != 51 {
		t.Errorf("merged stats = %d requests, %d ok, want 51/51", stats.Requests, stats.OK)
	}
	if len(stats.LatenciesMs) != 51 {
		t.Errorf("merged latencies = %d samples, want 51", len(stats.LatenciesMs))
	}

	var out bytes.Buffer
	cfg.out = &out
	if err := reportStats(cfg, stats); err != nil {
		t.Fatalf("reportStats: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "ok: 51") {
		t.Errorf("summary missing merged ok count:\n%s", out.String())
	}
}

// TestDistributedRunWorkerError checks a failing worker surfaces its error
// instead of silently dropping its slice of the run.
func TestDistributedRunWorkerError(t *testing.T) {
	lib := loadTestLibrary(t)
	workers := startLoadWorkers(t, 1)
	cfg := config{
		// Nothing listens on this port: every request errors, and strict
		// mode inside the worker is irrelevant — executeLoad only fails on
		// generation errors, so the stats come back with Errors set.
		url: "http://127.0.0.1:1", strategy: "breadth", k: 5,
		concurrency: 2, requests: 4, activityLen: 2, seed: 1,
		lib: lib,
	}
	stats, err := executeDistributed(cfg, workers)
	if err != nil {
		t.Fatalf("executeDistributed: %v", err)
	}
	if stats.Errors != 4 {
		t.Errorf("stats.Errors = %d, want 4", stats.Errors)
	}
	var out bytes.Buffer
	cfg.out = &out
	if err := reportStats(cfg, stats); err == nil {
		t.Error("reportStats accepted a run where every request errored")
	}

	// A worker address nothing listens on must fail the whole run.
	if _, err := executeDistributed(cfg, []string{"127.0.0.1:1"}); err == nil {
		t.Error("executeDistributed accepted an unreachable worker")
	}
}

// TestSweepEmitsBenchCells runs a small grid (locally and via a worker) and
// checks the bench-JSON output has one well-formed cell per grid point.
func TestSweepEmitsBenchCells(t *testing.T) {
	lib := loadTestLibrary(t)
	ts := httptest.NewServer(server.New(lib, nil))
	defer ts.Close()

	grids := sweepGrids{
		strategies: []string{"breadth", "focus-cmp"},
		ks:         []int{3, 5},
		batches:    []int{1, 4},
		zipfs:      []float64{0, 1.1},
	}
	for _, tc := range []struct {
		name    string
		workers []string
	}{
		{"local", nil},
		{"distributed", startLoadWorkers(t, 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "cells.json")
			var out bytes.Buffer
			cfg := config{
				url: ts.URL, concurrency: 2, requests: 12, activityLen: 2,
				seed: 1, lib: lib, out: &out,
			}
			if err := runSweep(cfg, grids, tc.workers, path); err != nil {
				t.Fatalf("runSweep: %v\n%s", err, out.String())
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var cells []benchCell
			if err := json.Unmarshal(data, &cells); err != nil {
				t.Fatalf("bench-JSON did not parse: %v", err)
			}
			if want := 2 * 2 * 2 * 2; len(cells) != want {
				t.Fatalf("got %d cells, want %d", len(cells), want)
			}
			seen := map[string]bool{}
			for _, c := range cells {
				if seen[c.Method] {
					t.Errorf("duplicate cell %q", c.Method)
				}
				seen[c.Method] = true
				if c.OK == 0 || c.Failed != 0 {
					t.Errorf("cell %q: ok=%d failed=%d", c.Method, c.OK, c.Failed)
				}
				if c.MeanLatencyMS <= 0 || c.ThroughputRPS <= 0 {
					t.Errorf("cell %q has empty metrics: %+v", c.Method, c)
				}
				if c.Implementations != lib.NumImplementations() {
					t.Errorf("cell %q implementations = %d", c.Method, c.Implementations)
				}
			}
			if !seen["loadgen/focus-cmp/k=5/batch=4/zipf=1.1"] {
				t.Errorf("missing expected grid cell; got %v", seen)
			}
		})
	}
}
