// Package cluster implements multi-node sharded serving: the library is
// split by implementation-id range across worker processes, a coordinator
// scatters each query to every shard and merges the per-shard partials under
// the strategies' total tie-break order, so distributed rankings are
// bit-identical to a single-node scan of the full library (see DESIGN.md,
// "Cluster serving & scatter-gather").
//
// The wire protocol runs over internal/comms frames; payloads are JSON.
// Float64 survives a JSON round trip exactly (encoding/json emits the
// shortest representation that parses back to the same bits), and every
// cross-shard score that must merge exactly travels as int64 partials
// anyway, so the encoding never perturbs a ranking.
package cluster

import (
	"encoding/json"
	"fmt"

	"goalrec/internal/comms"
	"goalrec/internal/core"
	"goalrec/internal/strategy"
)

// Frame types of the cluster protocol. Responses reuse the request's type
// (the request id does the correlation); FrameErr marks a failed request.
const (
	// FrameRegister introduces a coordinator to a worker: the response
	// carries the worker's epoch, vocabulary checksum and resolved shard
	// range so incompatible artifacts are rejected before any query.
	FrameRegister = comms.TypeApp + iota
	// FrameFocus asks for the shard's annotated Focus emission list.
	FrameFocus
	// FrameBreadth asks for the shard's integer Breadth partial.
	FrameBreadth
	// FrameBMSurvey asks for the shard's Best Match survey (round one).
	FrameBMSurvey
	// FrameBMVectors asks for the shard's candidate vectors restricted to
	// the global goal space (round two).
	FrameBMVectors
	// Reserved: the retired one-way score floor broadcast. The slot keeps
	// the later types' wire numbers.
	_
	// FrameHeartbeat probes liveness and refreshes the worker's epoch.
	FrameHeartbeat
	// FramePrepare stages the next epoch on a worker (two-phase swap,
	// phase one): the worker reloads its library source and holds the
	// result without serving it.
	FramePrepare
	// FrameCommit atomically flips a worker to its staged epoch.
	FrameCommit
	// FrameAbort discards a staged epoch, keeping the current one.
	FrameAbort
	// FrameErr is the error response type; its payload is errPayload.
	FrameErr
)

// registerResponse answers FrameRegister and FrameHeartbeat.
type registerResponse struct {
	Epoch uint64 `json:"epoch"`
	// Vocab is the worker's vocabulary checksum (Library.VocabChecksum).
	// The coordinator resolves activity names against its own copy of the
	// artifact and scatters ids; a worker with a different vocabulary would
	// resolve those ids to different actions and silently corrupt the
	// merge, so a mismatch fails registration.
	Vocab uint64 `json:"vocab"`
	// Lo, Hi is the worker's resolved implementation range [Lo, Hi).
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Impls is the worker's full library size, which every worker and the
	// coordinator must agree on for the ranges to tile it.
	Impls int `json:"impls"`
}

// focusRequest asks for the top-k annotated emissions of the shard.
type focusRequest struct {
	// Measure is "cmp" (completeness) or "cl" (closeness).
	Measure  string          `json:"measure"`
	Activity []core.ActionID `json:"activity"`
	K        int             `json:"k"`
}

// shardEpoch is the epoch every query response carries: the one the shard
// served the query at.
type shardEpoch struct {
	Epoch uint64 `json:"epoch"`
}

func (e shardEpoch) servedEpoch() uint64 { return e.Epoch }

type focusResponse struct {
	shardEpoch
	Emissions []strategy.FocusEmission `json:"emissions"`
}

// breadthRequest asks for the shard's Breadth partial under the overlap
// weighting, the only one the coordinator serves.
type breadthRequest struct {
	Activity []core.ActionID `json:"activity"`
}

type breadthResponse struct {
	shardEpoch
	Partial *strategy.BreadthPartial `json:"partial"`
}

type bmSurveyRequest struct {
	Activity []core.ActionID `json:"activity"`
}

type bmSurveyResponse struct {
	shardEpoch
	Survey *strategy.BestMatchSurvey `json:"survey"`
}

type bmVectorsRequest struct {
	// Candidates and GoalSpace are the merged global spaces of round one:
	// every shard reports its candidate vectors in the same feature space,
	// which is what makes the folded sums equal the single-node ones.
	Candidates []core.ActionID `json:"candidates"`
	GoalSpace  []core.GoalID   `json:"goal_space"`
}

type bmVectorsResponse struct {
	shardEpoch
	Vectors *strategy.BestMatchVectors `json:"vectors"`
}

type prepareResponse struct {
	// Impls is the staged library's size; the coordinator checks the
	// staged artifacts agree across workers before committing.
	Impls int `json:"impls"`
	// Vocab is the staged library's vocabulary checksum, same rationale.
	Vocab uint64 `json:"vocab"`
}

type commitResponse struct {
	Epoch uint64 `json:"epoch"`
	// Lo, Hi, Impls is the worker's range resolved against the committed
	// epoch: an open-ended shard (Hi == -1) grows with the library, so the
	// coordinator refreshes its registration state from the commit instead
	// of waiting for the next heartbeat.
	Lo    int `json:"lo"`
	Hi    int `json:"hi"`
	Impls int `json:"impls"`
}

type errPayload struct {
	Error string `json:"error"`
}

// mustJSON marshals v, panicking on failure — every payload type here is a
// plain struct of marshalable fields, so a failure is a programming error.
func mustJSON(v interface{}) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("cluster: marshaling %T: %v", v, err))
	}
	return b
}

// errFrame builds the error response for a failed request.
func errFrame(err error) (uint8, []byte) {
	return FrameErr, mustJSON(errPayload{Error: err.Error()})
}

// decodeResponse unmarshals a response frame into v, mapping FrameErr
// payloads onto Go errors.
func decodeResponse(f comms.Frame, v interface{}) error {
	if f.Type == FrameErr {
		var ep errPayload
		if err := json.Unmarshal(f.Payload, &ep); err != nil || ep.Error == "" {
			return fmt.Errorf("cluster: peer error with malformed payload")
		}
		return fmt.Errorf("cluster: peer: %s", ep.Error)
	}
	if v == nil {
		return nil
	}
	if err := json.Unmarshal(f.Payload, v); err != nil {
		return fmt.Errorf("cluster: decoding %T response: %w", v, err)
	}
	return nil
}
