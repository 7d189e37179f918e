package goalrec

import (
	"hash/fnv"

	"goalrec/internal/core"
)

// Partition returns the shard view of this snapshot: the implementations
// [lo, hi) re-numbered to local ids 0..hi-lo-1, sharing the parent's name
// dictionary and keeping the parent's action/goal id spaces (see
// core.PartitionRange). Cluster workers serve queries from a partition and
// report lo+local as the global implementation id, which — together with the
// preserved id spaces — is what keeps distributed rankings bit-identical to
// a single-node scan of the full library.
func (l *Library) Partition(lo, hi int) (*Library, error) {
	sub, err := core.PartitionRange(l.lib, lo, hi)
	if err != nil {
		return nil, err
	}
	return &Library{lib: sub, vocab: l.vocab}, nil
}

// Core exposes the underlying id-level library. It exists for the cluster
// serving layer, which computes per-shard score partials directly against
// the strategy kernels; everything else should use the name-level API.
func (l *Library) Core() *core.Library { return l.lib }

// ResolveActivity maps action names to snapshot-local ids and returns the
// names this snapshot cannot serve, in UnknownActions' canonical shape
// (sorted, deduplicated, nil when empty). The cluster coordinator resolves
// once and scatters ids, so every worker scores exactly the activity a
// single node would.
func (l *Library) ResolveActivity(actions []string) ([]core.ActionID, []string) {
	ids, unknown := l.resolveSplit(actions)
	return ids, normalizeUnknown(unknown)
}

// ActionNameByID returns the name of an action id, with the numeric
// fallback used everywhere else in the name-level API. The coordinator uses
// it to render gathered id-level rankings.
func (l *Library) ActionNameByID(a core.ActionID) string {
	return l.vocab.ActionName(a)
}

// VocabChecksum fingerprints the snapshot-visible dictionary: the action
// and goal id spaces and every name in id order, hashed with FNV-1a.
// Cluster registration compares checksums so a worker serving a different
// artifact (which would resolve names to different ids and silently corrupt
// the merged ranking) is rejected up front rather than detected by wrong
// results. The snapshot is immutable, so the hash is computed once per
// Library and every later call — each heartbeat reply, each registration
// check — returns the remembered value.
func (l *Library) VocabChecksum() uint64 {
	l.vocabSumOnce.Do(func() { l.vocabSum = l.computeVocabChecksum() })
	return l.vocabSum
}

func (l *Library) computeVocabChecksum() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	writeInt := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	writeStr := func(s string) {
		writeInt(uint64(len(s)))
		h.Write([]byte(s))
	}
	writeInt(uint64(l.lib.NumActions()))
	for id := 0; id < l.lib.NumActions(); id++ {
		writeStr(l.vocab.ActionName(core.ActionID(id)))
	}
	writeInt(uint64(l.lib.NumGoals()))
	for id := 0; id < l.lib.NumGoals(); id++ {
		writeStr(l.vocab.GoalName(core.GoalID(id)))
	}
	return h.Sum64()
}
