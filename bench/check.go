package main

import (
	"encoding/json"
	"fmt"

	"goalrec"
)

// wireReply is the part of a scoring response the checker compares.
type wireReply struct {
	Epoch           uint64 `json:"epoch"`
	Recommendations []struct {
		Action string  `json:"action"`
		Score  float64 `json:"score"`
	} `json:"recommendations"`
	Degraded bool `json:"degraded"`
}

// checker recomputes answers in-process with Library.Recommender — no
// cache, no pruning — and compares (action, score) lists exactly.
//
// Stateless workloads are checked against the loaded library. user_session
// is checked against a replica Engine fed the ingest batches the daemon
// acked, in order: epochs[i] is the replica's snapshot after i batches, and
// a reply stamped with epoch baseEpoch+i must equal a from-scratch ranking of
// the user's acked history over that snapshot.
type checker struct {
	replica   *goalrec.Engine
	epochs    []*goalrec.Library
	baseEpoch uint64
	recs      map[recKey]goalrec.Recommender
}

type recKey struct {
	epoch    int
	strategy string
}

// newChecker builds a checker over lib, whose daemon-side copy is served at
// baseEpoch. lib's vocabulary is adopted by the replica, so lib must not
// back another engine that ingests.
func newChecker(lib *goalrec.Library, baseEpoch uint64) *checker {
	replica := goalrec.NewEngineFromLibrary(lib)
	return &checker{
		replica:   replica,
		epochs:    []*goalrec.Library{replica.Snapshot()},
		baseEpoch: baseEpoch,
		recs:      map[recKey]goalrec.Recommender{},
	}
}

// ingested replays one acked ingest on the replica and checks the epoch the
// daemon reported for it.
func (c *checker) ingested(r *reply) error {
	var ack struct {
		Epoch uint64 `json:"epoch"`
		Added int    `json:"added"`
	}
	if err := json.Unmarshal(r.body, &ack); err != nil {
		return fmt.Errorf("ingest reply: %w", err)
	}
	if _, err := c.replica.AddImplementations(r.op.impls); err != nil {
		return fmt.Errorf("replaying ingest on the replica: %w", err)
	}
	c.epochs = append(c.epochs, c.replica.Snapshot())
	if want := c.baseEpoch + uint64(len(c.epochs)-1); ack.Epoch != want || ack.Added != len(r.op.impls) {
		return fmt.Errorf("ingest acked epoch %d added %d, replica is at epoch %d added %d",
			ack.Epoch, ack.Added, want, len(r.op.impls))
	}
	return nil
}

// check compares one kept scoring reply with the reference ranking.
func (c *checker) check(r *reply) error {
	var got wireReply
	if err := json.Unmarshal(r.body, &got); err != nil {
		return fmt.Errorf("%s reply: %w", r.op.kind, err)
	}
	if got.Degraded {
		return fmt.Errorf("%s reply is flagged degraded", r.op.kind)
	}
	if got.Epoch < c.baseEpoch || got.Epoch-c.baseEpoch >= uint64(len(c.epochs)) {
		return fmt.Errorf("%s reply from epoch %d, replica covers [%d, %d]",
			r.op.kind, got.Epoch, c.baseEpoch, c.baseEpoch+uint64(len(c.epochs)-1))
	}
	key := recKey{int(got.Epoch - c.baseEpoch), r.op.strategy}
	rec, ok := c.recs[key]
	if !ok {
		var err error
		if rec, err = c.epochs[key.epoch].Recommender(goalrec.Strategy(key.strategy)); err != nil {
			return err
		}
		c.recs[key] = rec
	}
	want := rec.Recommend(r.op.activity, k)
	if len(want) != len(got.Recommendations) {
		return fmt.Errorf("%s %v: got %d recommendations, reference has %d",
			key.strategy, r.op.activity, len(got.Recommendations), len(want))
	}
	for i, w := range want {
		if g := got.Recommendations[i]; g.Action != w.Action || g.Score != w.Score {
			return fmt.Errorf("%s %v: rank %d is (%s, %v), reference says (%s, %v)",
				key.strategy, r.op.activity, i, g.Action, g.Score, w.Action, w.Score)
		}
	}
	return nil
}

// checkAll replays the ingests, then checks every kept reply; it returns the
// number of mismatches and the first few as errors.
func (c *checker) checkAll(ingests, kept []reply) (mismatches int, firsts []error) {
	note := func(err error) {
		mismatches++
		if len(firsts) < 5 {
			firsts = append(firsts, err)
		}
	}
	for i := range ingests {
		if err := c.ingested(&ingests[i]); err != nil {
			note(err)
		}
	}
	for i := range kept {
		if !kept[i].op.isRecommend() {
			continue
		}
		if err := c.check(&kept[i]); err != nil {
			note(err)
		}
	}
	return mismatches, firsts
}
