package main

import (
	"bytes"
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"goalrec"
	"goalrec/internal/faultinject"
	"goalrec/internal/server"
)

func watchTestLibrary(t *testing.T) *goalrec.Library {
	t.Helper()
	b := goalrec.NewBuilder()
	if err := b.AddImplementation("salad", "potatoes", "carrots"); err != nil {
		t.Fatal(err)
	}
	return b.Build()
}

type fakeInfo struct{ mtime time.Time }

func (f fakeInfo) Name() string       { return "fake.jsonl" }
func (f fakeInfo) Size() int64        { return 1 }
func (f fakeInfo) Mode() os.FileMode  { return 0 }
func (f fakeInfo) ModTime() time.Time { return f.mtime }
func (f fakeInfo) IsDir() bool        { return false }
func (f fakeInfo) Sys() interface{}   { return nil }

// TestWatcherBackoffAndRecovery scripts seven consecutive load failures
// followed by success and checks the whole failure-streak contract: the
// watcher keeps retrying (with backoff) even though the file state never
// changes again, logs the ok→failing transition once plus every-Nth
// heartbeats instead of a line per poll, notes each failure on the server,
// and on recovery resets the streak and swaps the new epoch in.
func TestWatcherBackoffAndRecovery(t *testing.T) {
	lib := watchTestLibrary(t)
	rl := &faultinject.Reloader{FailFirst: 7, Lib: lib}
	srv := server.New(lib, nil, server.WithReloader(rl.Load))
	epoch0 := srv.Epoch()

	var buf bytes.Buffer
	w := newLibraryWatcher(srv, log.New(&buf, "", 0), "fake.jsonl", time.Millisecond)
	w.maxBackoff = 4 * time.Millisecond
	w.logEveryNth = 3
	var stats atomic.Int64
	t0 := time.Unix(1000, 0)
	w.stat = func(string) (os.FileInfo, error) {
		// First stat (baseline) sees t0; every later stat sees a changed
		// file, which triggers the first load. The state then never
		// changes again, so continued retries prove the failing-mode
		// retry path.
		if stats.Add(1) == 1 {
			return fakeInfo{t0}, nil
		}
		return fakeInfo{t0.Add(time.Second)}, nil
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.run(ctx)
	}()

	deadline := time.After(10 * time.Second)
	for srv.Epoch() == epoch0 {
		select {
		case <-deadline:
			cancel()
			<-done
			t.Fatalf("watcher never recovered; failures=%d log:\n%s", rl.Failures(), buf.String())
		case <-time.After(time.Millisecond):
		}
	}
	// Let a few healthy, unchanged polls pass: they must be silent no-ops.
	time.Sleep(10 * time.Millisecond)
	cancel()
	<-done

	if rl.Failures() != 7 {
		t.Errorf("failures = %d, want 7", rl.Failures())
	}
	if got := srv.ReloadFailureStreak(); got != 0 {
		t.Errorf("streak after recovery = %d, want 0", got)
	}

	logs := buf.String()
	if n := strings.Count(logs, "fake.jsonl failing:"); n != 1 {
		t.Errorf("ok->failing logged %d times, want 1:\n%s", n, logs)
	}
	if n := strings.Count(logs, "still failing after"); n != 2 {
		t.Errorf("heartbeats = %d, want 2 (streaks 3 and 6):\n%s", n, logs)
	}
	if !strings.Contains(logs, "still failing after 3 attempts") ||
		!strings.Contains(logs, "still failing after 6 attempts") {
		t.Errorf("missing streak heartbeats:\n%s", logs)
	}
	if n := strings.Count(logs, "recovered"); n != 1 {
		t.Errorf("failing->ok logged %d times, want 1:\n%s", n, logs)
	}
	if n := strings.Count(logs, "swapped in"); n != 1 {
		t.Errorf("swaps logged = %d, want 1 (healthy unchanged polls must be silent):\n%s", n, logs)
	}
}

// TestWatcherIgnoresUnchangedFile pins the healthy fast path: an unchanged
// file triggers neither loads nor logs.
func TestWatcherIgnoresUnchangedFile(t *testing.T) {
	lib := watchTestLibrary(t)
	var buf bytes.Buffer
	var loads atomic.Int64
	srv := server.New(lib, nil, server.WithReloader(func() (*goalrec.Library, error) {
		loads.Add(1)
		return lib, nil
	}))
	w := newLibraryWatcher(srv, log.New(&buf, "", 0), "fake.jsonl", time.Millisecond)
	w.stat = func(string) (os.FileInfo, error) { return fakeInfo{time.Unix(1000, 0)}, nil }

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.run(ctx)
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	<-done

	if loads.Load() != 0 {
		t.Errorf("unchanged file loaded %d times", loads.Load())
	}
	if buf.Len() != 0 {
		t.Errorf("unchanged file produced logs:\n%s", buf.String())
	}
}

// runWith runs the daemon with args on a fresh command line.
func runWith(t *testing.T, args ...string) error {
	t.Helper()
	return runUntil(make(chan os.Signal, 1), args...)
}

// runUntil is runWith for a daemon that starts serving: a signal sent on
// stop shuts it down.
func runUntil(stop chan os.Signal, args ...string) error {
	saved, cmdline := os.Args, flag.CommandLine
	defer func() { os.Args, flag.CommandLine = saved, cmdline }()
	flag.CommandLine = flag.NewFlagSet("goalrecd", flag.ContinueOnError)
	os.Args = append([]string{"goalrecd"}, args...)
	return run(stop)
}

// TestRoleFlagsRefusedAtStartup: a flag combination a role cannot honour is
// an error before anything is loaded or listened on — in particular -watch in
// a cluster role, whose swaps are cluster-wide, is refused rather than ignored,
// and so is every flag that only another role reads. None of these libraries
// exists, so an error that names the flag was raised before the load.
func TestRoleFlagsRefusedAtStartup(t *testing.T) {
	coordinator := []string{"-role", "coordinator", "-library", "x.jsonl", "-peers", "127.0.0.1:1"}
	worker := []string{"-role", "worker", "-library", "x.jsonl", "-cluster-addr", "127.0.0.1:0"}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{append(coordinator, "-watch", "1s"), "-watch"},
		{append(worker, "-watch", "1s"), "-watch"},
		{[]string{"-role", "coordinator", "-library", "x.jsonl"}, "-peers"},
		{[]string{"-role", "coordinator", "-peers", "127.0.0.1:1"}, "-library"},
		{[]string{"-role", "worker", "-library", "x.jsonl"}, "-cluster-addr"},
		{[]string{"-role", "bogus", "-library", "x.jsonl"}, "unknown -role"},
		// Worker-only flags.
		{[]string{"-library", "x.jsonl", "-shard-range", "0:10"}, "-shard-range"},
		{[]string{"-library", "x.jsonl", "-cluster-addr", "127.0.0.1:0"}, "-cluster-addr"},
		{append(coordinator, "-shard-range", "0:-1"), "-shard-range"},
		// Coordinator-only flags.
		{[]string{"-library", "x.jsonl", "-peers", "127.0.0.1:1"}, "-peers"},
		{append(worker, "-partial-failure", "fail"), "-partial-failure"},
		{[]string{"-library", "x.jsonl", "-scatter-timeout", "1s"}, "-scatter-timeout"},
		{append(worker, "-heartbeat", "1s"), "-heartbeat"},
		// What a coordinator does not have: a store, per-user state.
		{append(coordinator, "-snapshot-dir", "d"), "-snapshot-dir"},
		{append(coordinator, "-wal-sync"), "-wal-sync"},
		{append(coordinator, "-compact-wal-bytes", "1024"), "-compact-wal-bytes"},
		{append(coordinator, "-scrub-interval", "1m"), "-scrub-interval"},
		{append(coordinator, "-user-capacity", "10"), "-user-capacity"},
		// -shard-range is parsed before the library is loaded.
		{append(worker, "-shard-range", "5"), "-shard-range"},
		{append(worker, "-shard-range", "9:3"), "-shard-range"},
	} {
		if err := runWith(t, tc.args...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("goalrecd %v: error %v, want one naming %q", tc.args, err, tc.want)
		}
	}
}

// TestWorkerRangeOutsideLibraryFailsAtStart: a worker whose -shard-range the
// loaded library cannot serve exits before it listens, naming the flag and
// the library's size, instead of answering every registration with an error.
func TestWorkerRangeOutsideLibraryFailsAtStart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lib.jsonl")
	lines := `{"goal":"salad","actions":["potatoes","carrots"]}` + "\n" +
		`{"goal":"soup","actions":["carrots","onions"]}` + "\n" +
		`{"goal":"stew","actions":["onions","beef"]}` + "\n"
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, r := range []string{"0:999999", "5:-1", "2:4"} {
		err := runWith(t, "-role", "worker", "-library", path, "-quiet", "-addr", "127.0.0.1:0",
			"-cluster-addr", "127.0.0.1:0", "-shard-range", r)
		if err == nil || !strings.Contains(err.Error(), "-shard-range") || !strings.Contains(err.Error(), "3 implementations") {
			t.Errorf("-shard-range %s on a 3-implementation library: error %v, want one naming the flag and the size", r, err)
		}
	}
}

// TestWorkerReloadNotImplemented: a worker's epoch moves only by the
// coordinator's commit, so its own POST /v1/reload answers 501 instead of
// swapping the worker alone.
func TestWorkerReloadNotImplemented(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "lib.jsonl")
	if err := os.WriteFile(path, []byte(`{"goal":"salad","actions":["potatoes","carrots"]}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- runUntil(stop, "-role", "worker", "-library", path, "-quiet", "-addr", addr,
			"-cluster-addr", "127.0.0.1:0")
	}()
	var resp *http.Response
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		select {
		case err := <-done:
			t.Fatalf("worker exited before serving: %v", err)
		default:
		}
		if resp, err = http.Post("http://"+addr+"/v1/reload", "application/json", nil); err == nil || time.Now().After(deadline) {
			break
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	stop <- syscall.SIGTERM
	if err := <-done; err != nil {
		t.Fatalf("worker shutdown: %v", err)
	}
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("worker POST /v1/reload = %d, want 501", resp.StatusCode)
	}
}
