package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"strconv"

	"goalrec"
	"goalrec/internal/xrand"
)

// k is the list length every request asks for.
const k = 10

// sizes are the input dimensions. The benchmark runs at fullSizes; the
// tier-1 smoke test shrinks them so all four workloads run in seconds.
type sizes struct {
	impls    int // implementations in the library
	actions  int // action vocabulary a0..a<actions-1>
	pool     int // hot_http: distinct activities in the hot pool
	sessions int // user_session: live sessions, split evenly over the load clients
}

// fullSizes is the frozen benchmark input: the shape of
// experiments.clusterLibrary at the first size of every BENCH_PR*.json
// sweep, so the old kernel cells stay comparable.
var fullSizes = sizes{impls: 250_000, actions: 10_000, pool: 1024, sessions: 1000}

const (
	activityLen   = 5   // actions per stateless request
	sessionLen    = 12  // appends before a user_session session ends
	ingestEvery   = 200 // user_session: one ingest per this many ops
	ingestBatch   = 8   // implementations per ingest
	ingestActions = 3   // actions per ingested implementation
)

// subRNG derives the generator for one named part of the input from the run
// seed, so adding a part never shifts the numbers another part draws.
func subRNG(seed uint64, label string) *xrand.RNG {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	return xrand.New(seed ^ h.Sum64())
}

func actionName(id int) string { return "a" + strconv.Itoa(id) }

// writeLibrary writes the run's library as JSON lines: Zipf(0.6)-popular
// actions, 2+Poisson(6) actions per implementation, two implementations per
// goal.
func writeLibrary(w io.Writer, seed uint64, sz sizes) error {
	rng := subRNG(seed, "library")
	pop := xrand.NewZipf(rng.Split(), sz.actions, 0.6)
	bw := bufio.NewWriterSize(w, 1<<20)
	var line []byte
	var ids []int
	for i := 0; i < sz.impls; i++ {
		n := 2 + rng.Poisson(6)
		if n > sz.actions {
			n = sz.actions
		}
		ids = ids[:0]
	draw:
		for j := 0; j < n; j++ {
			id := pop.Next()
			for _, seen := range ids {
				if seen == id {
					continue draw
				}
			}
			ids = append(ids, id)
		}
		if len(ids) < 2 {
			ids = append(ids, (ids[0]+1)%sz.actions)
		}
		line = append(line[:0], `{"goal":"g`...)
		line = strconv.AppendInt(line, int64(i/2), 10)
		line = append(line, `","actions":[`...)
		for j, id := range ids {
			if j > 0 {
				line = append(line, ',')
			}
			line = append(line, `"a`...)
			line = strconv.AppendInt(line, int64(id), 10)
			line = append(line, '"')
		}
		line = append(line, "]}\n"...)
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// opKind says which endpoint an operation calls.
type opKind uint8

const (
	opRecommend opKind = iota
	opUserAppend
	opUserRecommend
	opUserDelete
	opIngest
)

func (k opKind) String() string {
	return [...]string{"recommend", "append", "user_recommend", "delete", "ingest"}[k]
}

// op is one request plus what the checker needs to recompute its answer.
type op struct {
	kind   opKind
	method string
	path   string
	body   []byte

	user     string // user_session ops: the user id
	strategy string
	// activity is the request's activity (recommend), the new actions
	// (append) or the user's whole acked history (user_recommend). The
	// slice is never modified after the op is built.
	activity []string
	impls    []goalrec.Implementation // ingest
}

// isRecommend reports whether the op's latency belongs in the end-to-end
// latency sample.
func (o *op) isRecommend() bool { return o.kind == opRecommend || o.kind == opUserRecommend }

// stream is one client's lazily generated request sequence. Nothing is
// cycled: a faster daemon sees more requests, not repeated ones.
type stream interface {
	next() op
}

func recommendOp(strategy string, activity []string) op {
	body, err := json.Marshal(struct {
		Activity []string `json:"activity"`
		Strategy string   `json:"strategy"`
		K        int      `json:"k"`
	}{activity, strategy, k})
	if err != nil {
		panic(err) // unreachable: strings and ints always marshal
	}
	return op{kind: opRecommend, method: "POST", path: "/v1/recommend", body: body,
		strategy: strategy, activity: activity}
}

func uniformActivity(rng *xrand.RNG, actions, n int) []string {
	if n > actions {
		n = actions
	}
	ids := rng.SampleInt32(int32(actions), n)
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = actionName(int(id))
	}
	return out
}

// distinctStream sends activities of uniformly sampled actions, so two
// requests practically never share a result-cache key.
type distinctStream struct {
	rng      *xrand.RNG
	actions  int
	strategy string
}

func (s *distinctStream) next() op {
	return recommendOp(s.strategy, uniformActivity(s.rng, s.actions, activityLen))
}

// hotStream draws Zipf(1.0) from a fixed pool of activities, alternating the
// two Focus strategies at random.
type hotStream struct {
	rng  *xrand.RNG
	rank *xrand.Zipf
	pool [][]string
}

var hotStrategies = [...]string{"focus-cmp", "focus-cl"}

func hotPool(seed uint64, sz sizes) [][]string {
	rng := subRNG(seed, "hot-pool")
	pool := make([][]string, sz.pool)
	for i := range pool {
		pool[i] = uniformActivity(rng, sz.actions, activityLen)
	}
	return pool
}

func newHotStream(seed uint64, client int, pool [][]string) *hotStream {
	rng := subRNG(seed, fmt.Sprintf("hot-%d", client))
	return &hotStream{rng: rng, rank: xrand.NewZipf(rng.Split(), len(pool), 1.0), pool: pool}
}

func (s *hotStream) next() op {
	return recommendOp(hotStrategies[s.rng.Intn(len(hotStrategies))], s.pool[s.rank.Next()])
}

// session is one live user of the user_session workload.
type session struct {
	id      string
	history []string
	// pendingRecommend is true when the last op was an append, so the next
	// one scores the history.
	pendingRecommend bool
}

// sessionStream drives a population of sessions: append one new popular
// action, score the stored history, repeat until the history holds sessionLen
// actions, then delete the user and start a new id — so the population is
// stationary. With ingests set, every ingestEvery-th op is an ingest batch
// instead. A stream owns its users (their ids carry the client's number) and
// its client sends one request at a time, which keeps per-user order.
type sessionStream struct {
	rng *xrand.RNG
	// pop ranks actions by popularity among users; rank r is action
	// byRank[r]. The ranking is a seeded permutation, independent of how many
	// implementations an action appears in: users favour the same few
	// actions, but those are not the library's longest posting rows.
	pop      *xrand.Zipf
	byRank   []int
	client   int
	sessions []session
	nextID   int
	ops      int
	ingest   bool // whether this stream sends the ingest batches
	ingests  int  // ingest batches generated so far
	actions  int
}

// newSessionStream returns the stream numbered client, which owns sessions
// users named after it.
func newSessionStream(seed uint64, client, sessions, actions int, ingest bool) *sessionStream {
	rng := subRNG(seed, fmt.Sprintf("session-%d", client))
	s := &sessionStream{
		rng:      rng,
		pop:      xrand.NewZipf(rng.Split(), actions, 1.0),
		byRank:   subRNG(seed, "user-popularity").Perm(actions),
		client:   client,
		sessions: make([]session, sessions),
		ingest:   ingest,
		actions:  actions,
	}
	for i := range s.sessions {
		s.sessions[i].id = s.newID()
	}
	return s
}

func (s *sessionStream) newID() string {
	s.nextID++
	return fmt.Sprintf("u%d-%d", s.client, s.nextID)
}

// freshAction draws a popular action the history does not hold yet.
func (s *sessionStream) freshAction(history []string) string {
	for {
		name := actionName(s.byRank[s.pop.Next()])
		dup := false
		for _, h := range history {
			if h == name {
				dup = true
				break
			}
		}
		if !dup {
			return name
		}
	}
}

func appendOp(id string, actions []string) op {
	body, err := json.Marshal(struct {
		Actions []string `json:"actions"`
	}{actions})
	if err != nil {
		panic(err) // unreachable
	}
	return op{kind: opUserAppend, method: "POST", path: "/v1/users/" + id + "/actions",
		body: body, user: id, activity: actions}
}

// prefill returns one append per session giving it a history of random
// length below sessionLen, so the population the timed phases see is
// already spread over the whole session life cycle.
func (s *sessionStream) prefill() []op {
	var ops []op
	for i := range s.sessions {
		se := &s.sessions[i]
		for n := s.rng.Intn(sessionLen); len(se.history) < n; {
			se.history = append(se.history, s.freshAction(se.history))
		}
		if len(se.history) > 0 {
			ops = append(ops, appendOp(se.id, se.history))
		}
	}
	return ops
}

func userRecommendOp(id string, history []string) op {
	return op{kind: opUserRecommend, method: "GET",
		path: "/v1/users/" + id + "/recommend?strategy=breadth",
		user: id, strategy: "breadth", activity: history}
}

func (s *sessionStream) ingestOp() op {
	impls := make([]goalrec.Implementation, ingestBatch)
	type payload struct {
		Goal    string   `json:"goal"`
		Actions []string `json:"actions"`
	}
	wire := make([]payload, ingestBatch)
	for i := range impls {
		goal := fmt.Sprintf("bg%d-%d-%d", s.client, s.ingests, i)
		acts := uniformActivity(s.rng, s.actions, ingestActions)
		impls[i] = goalrec.Implementation{Goal: goal, Actions: acts}
		wire[i] = payload{goal, acts}
	}
	s.ingests++
	body, err := json.Marshal(struct {
		Implementations []payload `json:"implementations"`
	}{wire})
	if err != nil {
		panic(err) // unreachable
	}
	return op{kind: opIngest, method: "POST", path: "/v1/implementations", body: body, impls: impls}
}

func (s *sessionStream) next() op {
	s.ops++
	if s.ingest && s.ops%ingestEvery == 0 {
		return s.ingestOp()
	}
	se := &s.sessions[s.rng.Intn(len(s.sessions))]
	switch {
	case se.pendingRecommend:
		se.pendingRecommend = false
		return userRecommendOp(se.id, se.history)
	case len(se.history) >= sessionLen:
		o := op{kind: opUserDelete, method: "DELETE", path: "/v1/users/" + se.id, user: se.id}
		*se = session{id: s.newID()}
		return o
	default:
		a := s.freshAction(se.history)
		// A fresh slice per append: earlier ops keep the history they saw.
		se.history = append(append(make([]string, 0, len(se.history)+1), se.history...), a)
		se.pendingRecommend = true
		return appendOp(se.id, []string{a})
	}
}

// verifyOps returns read-only scoring requests over n of the live sessions
// that have a history, for the quiescent verify step.
func (s *sessionStream) verifyOps(n int) []op {
	var ops []op
	for i := range s.sessions {
		se := &s.sessions[i]
		if len(se.history) == 0 {
			continue
		}
		if len(ops) == n {
			break
		}
		ops = append(ops, userRecommendOp(se.id, se.history))
	}
	return ops
}
