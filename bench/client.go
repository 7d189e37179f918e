package main

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"time"
)

// sampleEvery is the share of timed requests whose answer is kept and
// compared with the reference afterwards (1 in 64, by position in the
// client's stream).
const sampleEvery = 64

// loadClients is how many connections drive the load, each from its own
// goroutine with its own request stream: one per core of the box the
// benchmark was defined on, never more clients than cores.
const loadClients = 2

// client is a connection with its request stream: its own transport limited
// to a single keep-alive connection. One goroutine uses it at a time.
type client struct {
	base string
	hc   *http.Client
	st   stream
	sent int // ops drawn from st so far, for the 1-in-64 sample
}

func newClient(base string, st stream) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &client{base: base, st: st, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is a kept answer awaiting its reference check.
type reply struct {
	op   op
	body []byte
}

// do sends one op and reports whether it completed with a 2xx. The body is
// always drained so the connection is reused; it is returned only when keep
// is set.
func (c *client) do(ctx context.Context, o *op, keep bool) (ok bool, body []byte) {
	var rd io.Reader
	if o.body != nil {
		rd = bytes.NewReader(o.body)
	}
	req, err := http.NewRequestWithContext(ctx, o.method, c.base+o.path, rd)
	if err != nil {
		return false, nil
	}
	if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return false, nil
	}
	defer resp.Body.Close()
	if keep {
		body, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	if err != nil {
		return false, nil
	}
	return resp.StatusCode >= 200 && resp.StatusCode < 300, body
}

// tally accumulates what one client saw during one phase.
type tally struct {
	attempted int
	failed    int
	recommend []float64            // latencies of recommend ops, ms
	other     map[opKind][]float64 // latencies of the remaining kinds, ms
	late      []float64            // open loop: how late the sender itself ran, ms
	kept      []reply
	ingests   []reply // every ingest, in order: the checker replays them
	repeats   int     // recommend ops whose (strategy, activity) was sent before
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.recommend = append(t.recommend, o.recommend...)
	for k, v := range o.other {
		if t.other == nil {
			t.other = map[opKind][]float64{}
		}
		t.other[k] = append(t.other[k], v...)
	}
	t.late = append(t.late, o.late...)
	t.kept = append(t.kept, o.kept...)
	t.ingests = append(t.ingests, o.ingests...)
	t.repeats += o.repeats
}

func (t *tally) ok() int { return t.attempted - t.failed }

// seenKeys remembers which stateless requests were sent before, which is
// what the daemon's result cache can hit on: the pool is smaller than the
// cache, so a repeat is a hit. The load clients share one set.
type seenKeys struct {
	mu   sync.Mutex
	keys map[string]struct{}
}

func (s *seenKeys) repeat(o *op) bool {
	if o.kind != opRecommend {
		return false
	}
	key := o.strategy + "\x00" + strings.Join(o.activity, ",")
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.keys[key]; ok {
		return true
	}
	if s.keys == nil {
		s.keys = map[string]struct{}{}
	}
	s.keys[key] = struct{}{}
	return false
}

// issue draws the client's next op, sends it and books the outcome. Latency
// counts from due — the scheduled arrival in an open loop — or, when due is
// zero, from the send. It returns the send time.
func (c *client) issue(ctx context.Context, t *tally, seen *seenKeys, due time.Time) time.Time {
	o := c.st.next()
	c.sent++
	keep := c.sent%sampleEvery == 0 || o.kind == opIngest
	if seen.repeat(&o) {
		t.repeats++
	}
	sent := time.Now()
	if due.IsZero() {
		due = sent
	}
	ok, body := c.do(ctx, &o, keep)
	ms := float64(time.Since(due)) / float64(time.Millisecond)
	t.attempted++
	if !ok {
		t.failed++
		ms = math.Inf(1) // a failed request misses every latency limit
	}
	if o.isRecommend() {
		t.recommend = append(t.recommend, ms)
	} else {
		if t.other == nil {
			t.other = map[opKind][]float64{}
		}
		t.other[o.kind] = append(t.other[o.kind], ms)
	}
	switch {
	case o.kind == opIngest:
		t.ingests = append(t.ingests, reply{op: o, body: body})
	case keep && ok:
		t.kept = append(t.kept, reply{op: o, body: body})
	}
	return sent
}

// each runs fn once per client, concurrently, each with a tally of its own,
// and returns the tallies merged in client order.
func each(clients []*client, fn func(i int, c *client, t *tally)) *tally {
	tallies := make([]tally, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, c, &tallies[i])
		}()
	}
	wg.Wait()
	total := &tally{}
	for i := range tallies {
		total.merge(&tallies[i])
	}
	return total
}

// closedLoop has every client send its next request as soon as its previous
// reply arrived, for d. It returns the tally and the throughput: operations
// completed OK ÷ the length of the phase, up to the last reply.
func closedLoop(ctx context.Context, clients []*client, seen *seenKeys, d time.Duration) (*tally, float64) {
	start := time.Now()
	deadline := start.Add(d)
	t := each(clients, func(_ int, c *client, t *tally) {
		for time.Now().Before(deadline) && ctx.Err() == nil {
			c.issue(ctx, t, seen, time.Time{})
		}
	})
	return t, float64(t.ok()) / time.Since(start).Seconds()
}

// openLoop sends rate requests per second for d on a fixed, evenly spaced
// schedule split over the clients: arrival i goes to connection i mod
// len(clients). A connection carries one request at a time, so a request whose
// predecessor is still in flight waits — and its latency counts from the
// instant it was due, not from when it was sent.
func openLoop(ctx context.Context, clients []*client, seen *seenKeys, rate float64, d time.Duration) *tally {
	gap := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(10 * time.Millisecond)
	end := start.Add(d)
	return each(clients, func(i int, c *client, t *tally) {
		free := time.Now() // when the connection last became idle
		step := gap * time.Duration(len(clients))
		for due := start.Add(gap * time.Duration(i)); due.Before(end) && ctx.Err() == nil; due = due.Add(step) {
			waitUntil(due)
			sent := c.issue(ctx, t, seen, due)
			// The sender's own lateness: past the due time and past the moment
			// the previous reply freed the connection.
			from := due
			if free.After(from) {
				from = free
			}
			t.late = append(t.late, float64(sent.Sub(from))/float64(time.Millisecond))
			free = time.Now()
		}
	})
}

// spinWindow is the last stretch before a due time that a sender spends
// polling the clock instead of sleeping, to absorb the kernel's wake-up
// latency. It costs each client at most spinWindow of CPU per request.
const spinWindow = 100 * time.Microsecond

func waitUntil(due time.Time) {
	if d := time.Until(due) - spinWindow; d > 0 {
		preciseSleep(d)
	}
	for time.Now().Before(due) {
	}
}

// sendAll sends ops one at a time on one client, keeping every answer.
func sendAll(ctx context.Context, c *client, ops []op, t *tally) {
	for i := range ops {
		if ctx.Err() != nil {
			return
		}
		ok, body := c.do(ctx, &ops[i], true)
		t.attempted++
		if !ok {
			t.failed++
			continue
		}
		t.kept = append(t.kept, reply{op: ops[i], body: body})
	}
}
