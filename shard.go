package goalrec

import (
	"fmt"
	"hash/fnv"
	"strconv"

	"goalrec/internal/core"
	"goalrec/internal/faultfs"
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

// PartitionMapped is Partition the way a serving process wants it: cut at
// most once per content, mapped on every start. hi < 0 means "to the end of
// the library". The shard of a library served from its sidecar (see
// LoadLibraryFileMapped) is served from a memory-mapped snapshot of the
// partition kept beside the source at <source>.shard-<lo>-<hi|end>.gsnp — the
// requested hi, so an open-ended shard keeps its file as the library grows —
// which this call cuts with Partition and writes when it is missing or stale,
// and verifies on every open. Its key is the sidecar's plus the resolved
// range and the library's size. The mapped shard carries l's epoch.
//
// decision is as for LoadLibraryFileMapped: SidecarHit, "rebuilt: <why>",
// "unwritable: <cause>" with the heap partition returned, or "" for a library
// with no sidecar behind it — heap-loaded, recovered from a store, or extended
// by ingest since it was opened — which is partitioned on the heap.
func (l *Library) PartitionMapped(lo, hi int) (part *Library, decision string, err error) {
	return l.partitionMapped(faultfs.OS, lo, hi)
}

// partitionMapped is PartitionMapped with the shard file written and opened
// through fsys (fault injection).
func (l *Library) partitionMapped(fsys faultfs.FS, lo, hi int) (*Library, string, error) {
	n, end, hiName := l.NumImplementations(), hi, strconv.Itoa(hi)
	if hi < 0 {
		end, hiName = n, "end"
	}
	if l.side == nil {
		part, err := l.Partition(lo, end)
		return part, "", err
	}
	// A range Partition refuses never gets a file written under its key, so
	// only a miss needs the bounds check Partition makes.
	path := fmt.Sprintf("%s.shard-%d-%s%s", l.side.src, lo, hiName, SidecarSuffix)
	key := []byte(fmt.Sprintf("%s shard:[%d,%d) of %d", l.side.key, lo, end, n))
	part, refused := l.openShard(fsys, path, key)
	if refused == nil {
		return part, SidecarHit, nil
	}
	heap, err := l.Partition(lo, end)
	if err != nil {
		return nil, "", err
	}
	err = writeSidecar(fsys, path, heap.lib, nil, key)
	if err == nil {
		part, err = l.openShard(fsys, path, key)
	}
	if err != nil {
		return heap, SidecarUnwritable + ": " + err.Error(), nil
	}
	return part, SidecarRebuilt + ": " + refusal(refused), nil
}

// openShard maps the id-level shard snapshot at path if it verifies as the
// image of key, sharing l's name dictionary and stamped with l's epoch. The
// mapping is never released.
func (l *Library) openShard(fsys faultfs.FS, path string, key []byte) (*Library, error) {
	snap, err := core.OpenSnapshotKeyed(fsys, path, key)
	if err != nil {
		return nil, err
	}
	return &Library{lib: snap.Library().WithEpoch(l.Epoch()), vocab: l.vocab}, nil
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
