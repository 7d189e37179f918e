package main

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"goalrec"
	"goalrec/internal/server"
)

func loadTestLibrary(t *testing.T) *goalrec.Library {
	t.Helper()
	b := goalrec.NewBuilder()
	for _, impl := range [][]string{
		{"salad", "potatoes", "carrots", "pickles"},
		{"soup", "carrots", "onions"},
		{"stew", "potatoes", "onions", "beef"},
	} {
		if err := b.AddImplementation(impl[0], impl[1:]...); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestRunLoadAllOK(t *testing.T) {
	lib := loadTestLibrary(t)
	ts := httptest.NewServer(server.New(lib, nil))
	defer ts.Close()
	var out bytes.Buffer
	err := runLoad(config{
		url: ts.URL, strategy: "breadth", k: 5,
		concurrency: 4, requests: 50, activityLen: 2, seed: 1,
		batch: 1, lib: lib, out: &out,
	})
	if err != nil {
		t.Fatalf("runLoad: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "ok: 50") {
		t.Errorf("summary missing ok count:\n%s", out.String())
	}
}

// TestRunLoadBatchMode drives /v1/recommend/batch: 50 activities at -batch 8
// become 7 requests (6×8 + 1×2), all of which must succeed.
func TestRunLoadBatchMode(t *testing.T) {
	lib := loadTestLibrary(t)
	ts := httptest.NewServer(server.New(lib, nil))
	defer ts.Close()
	var out bytes.Buffer
	err := runLoad(config{
		url: ts.URL, strategy: "breadth", k: 5,
		concurrency: 4, requests: 50, activityLen: 2, seed: 1,
		batch: 8, lib: lib, out: &out,
	})
	if err != nil {
		t.Fatalf("runLoad: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "requests: 7  ok: 7") {
		t.Errorf("summary should show 7 batched requests:\n%s", out.String())
	}
}

// blockedGateServer returns a server whose single admission slot is held
// by a reload that blocks until the returned release func is called —
// every expensive request it sees is shed deterministically.
func blockedGateServer(t *testing.T, lib *goalrec.Library) (*httptest.Server, func()) {
	t.Helper()
	entered := make(chan struct{})
	release := make(chan struct{})
	srv := server.New(lib, nil,
		server.WithReloader(func() (*goalrec.Library, error) {
			close(entered)
			<-release
			return lib, nil
		}),
		server.WithMaxInflight(1),
		server.WithAdmissionWait(time.Millisecond))
	ts := httptest.NewServer(srv)
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := ts.Client().Post(ts.URL+"/v1/reload", "application/json", nil)
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered
	return ts, func() {
		close(release)
		<-done
		ts.Close()
	}
}

// TestRunLoadOverloadMode pins the shed accounting: with the gate held
// shut, every request is a 503 — a failure in strict mode, expected and
// reported in -overload mode.
func TestRunLoadOverloadMode(t *testing.T) {
	lib := loadTestLibrary(t)
	ts, release := blockedGateServer(t, lib)
	defer release()

	base := config{
		url: ts.URL, strategy: "breadth", k: 5,
		concurrency: 2, requests: 10, activityLen: 2, seed: 1,
		batch: 1, lib: lib,
	}

	var strict bytes.Buffer
	cfg := base
	cfg.out = &strict
	if err := runLoad(cfg); err == nil {
		t.Fatalf("strict mode accepted shed responses:\n%s", strict.String())
	}

	var overload bytes.Buffer
	cfg = base
	cfg.overload = true
	cfg.out = &overload
	if err := runLoad(cfg); err != nil {
		t.Fatalf("overload mode rejected shed responses: %v\n%s", err, overload.String())
	}
	if !strings.Contains(overload.String(), "shed(503): 10") {
		t.Errorf("summary missing shed count:\n%s", overload.String())
	}
}

// TestRunLoadDurationMode checks wall-clock mode terminates and cycles the
// request sample.
func TestRunLoadDurationMode(t *testing.T) {
	lib := loadTestLibrary(t)
	ts := httptest.NewServer(server.New(lib, nil))
	defer ts.Close()
	var out bytes.Buffer
	start := time.Now()
	err := runLoad(config{
		url: ts.URL, strategy: "breadth", k: 5,
		concurrency: 4, requests: 8, duration: 100 * time.Millisecond,
		activityLen: 2, seed: 1, batch: 1, lib: lib, out: &out,
	})
	if err != nil {
		t.Fatalf("runLoad: %v\n%s", err, out.String())
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("duration mode ran for %v", elapsed)
	}
}

// TestRunLoadZipfSampling runs with a Zipf exponent and checks the summary
// reports the skewed sampling mode while every request still succeeds.
func TestRunLoadZipfSampling(t *testing.T) {
	lib := loadTestLibrary(t)
	ts := httptest.NewServer(server.New(lib, nil))
	defer ts.Close()
	var out bytes.Buffer
	err := runLoad(config{
		url: ts.URL, strategy: "breadth", k: 5,
		concurrency: 4, requests: 50, activityLen: 2, seed: 1,
		zipf: 1.1, batch: 1, lib: lib, out: &out,
	})
	if err != nil {
		t.Fatalf("runLoad: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "ok: 50") {
		t.Errorf("summary missing ok count:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "sampling: zipf(1.10)") {
		t.Errorf("summary missing zipf sampling mode:\n%s", out.String())
	}
}

// TestRunLoadRejectsBadConfig pins the config check: each setting the
// generator cannot run with is refused before a request is built, naming
// its flag. -concurrency 0 used to block forever on the first job send, so
// runLoad runs under the test's own deadline.
func TestRunLoadRejectsBadConfig(t *testing.T) {
	lib := loadTestLibrary(t)
	valid := config{
		url: "http://127.0.0.1:1", strategy: "breadth", k: 5,
		concurrency: 2, requests: 5, activityLen: 2, seed: 1,
		batch: 1, lib: lib,
	}
	for _, tc := range []struct {
		flag string
		set  func(*config)
	}{
		{"-concurrency", func(c *config) { c.concurrency = 0 }},
		{"-activity-len", func(c *config) { c.activityLen = 0 }},
		{"-batch", func(c *config) { c.batch = 0 }},
		{"-users", func(c *config) { c.users = -1 }},
		{"-requests", func(c *config) { c.requests = -1 }},
	} {
		t.Run(tc.flag, func(t *testing.T) {
			cfg := valid
			tc.set(&cfg)
			var out bytes.Buffer
			cfg.out = &out
			done := make(chan error, 1)
			go func() { done <- runLoad(cfg) }()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), tc.flag) {
					t.Fatalf("runLoad error = %v, want one naming %s", err, tc.flag)
				}
				if out.Len() != 0 {
					t.Errorf("a refused config still ran:\n%s", out.String())
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("runLoad with a bad %s never returned", tc.flag)
			}
		})
	}
}
