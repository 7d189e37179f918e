package goalrec

import (
	"bytes"
	"context"
	"log"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"goalrec/internal/core"
	"goalrec/internal/faultfs"
)

// seedSidecar writes a seeded JSON-lines library and loads it the way
// goalrecd does, from its sidecar. It returns the source's path, the
// sidecar-served library and the parse of the source, which is the oracle
// every persisted form must serve like.
func seedSidecar(t testing.TB, seed int64) (src string, mapped, oracle *Library) {
	t.Helper()
	src = filepath.Join(t.TempDir(), "lib.jsonl")
	writeSidecarSource(t, src, seed)
	mapped, decision, err := LoadLibraryFileMapped(src)
	if err != nil || mapped.side == nil {
		t.Fatalf("loading %s: decision %q, err %v", src, decision, err)
	}
	return src, mapped, parseReference(t, src)
}

// expectedCopy is what persisting stamped by copying its sidecar writes: the
// serialiser's image of stamped, keyed and source-stamped like the sidecar.
func expectedCopy(t testing.TB, stamped *Library) []byte {
	t.Helper()
	_, sourceStamp, err := core.ReadSnapshotSource(nil, stamped.side.src+SidecarSuffix)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := core.WriteSnapshot(&buf, stamped.lib, stamped.vocab, core.SnapshotOptions{SourceKey: stamped.side.key, SourceStamp: sourceStamp}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// snapshotWriter names the path that wrote the last store snapshot renamed
// into place in trace: "copy" when the sidecar file was read between that
// temp file's creation and its rename, "serialise" when nothing touched it.
func snapshotWriter(t testing.TB, trace []faultfs.Site, sidecar string) string {
	t.Helper()
	rename := -1
	for i, site := range trace {
		if site.Op == faultfs.OpRename && strings.HasPrefix(filepath.Base(site.Path), "snap-") {
			rename = i
		}
	}
	create := -1
	for i := rename - 1; i >= 0 && create < 0; i-- {
		if trace[i].Op == faultfs.OpCreateTemp {
			create = i
		}
	}
	if rename < 0 || create < 0 {
		t.Fatalf("no snapshot write in the trace (%d sites)", len(trace))
	}
	for _, site := range trace[create:rename] {
		if site.Path == sidecar {
			return "copy"
		}
	}
	return "serialise"
}

// storeUsers are the histories seedPreSwap appends: names of the sidecar
// libraries, names of storeIngest's, and a name neither knows.
var storeUsers = map[string][]string{
	"u1": {"act-001", "act-004", "act-017"},
	"u2": {"act-002", "act-1", "no-such-action"},
}

// seedPreSwap gives a store a history for a swap to supersede: two ingested
// batches and every storeUsers append, all in the WAL.
func seedPreSwap(t *testing.T, s *Store) {
	t.Helper()
	storeIngest(t, s.Engine(), 0, 20)
	storeIngest(t, s.Engine(), 20, 9)
	for _, id := range []string{"u1", "u2"} {
		if _, err := s.Users().Append(id, storeUsers[id]); err != nil {
			t.Fatal(err)
		}
	}
}

// sameRanking is reflect.DeepEqual with an empty ranking equal to nil.
func sameRanking(a, b []Recommendation) bool {
	return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b)
}

// assertStoreServes fails unless the store serves oracle at epoch: every
// strategy on every probe activity, and every storeUsers history with its
// stored-user ranking, bit-identical to a from-scratch query on the oracle.
func assertStoreServes(t testing.TB, s *Store, oracle *Library, epoch uint64) {
	t.Helper()
	e := s.Engine()
	if e.Epoch() != epoch {
		t.Fatalf("store at epoch %d, want %d", e.Epoch(), epoch)
	}
	for _, st := range Strategies() {
		rec, err := e.Recommender(st)
		if err != nil {
			t.Fatal(err)
		}
		want := oracle.MustRecommender(st)
		for _, activity := range sidecarActivities {
			if g, w := rec.Recommend(activity, 10), want.Recommend(activity, 10); !sameRanking(g, w) {
				t.Fatalf("%s %v: ranking %v, want %v", st, activity, g, w)
			}
		}
		for id, history := range storeUsers {
			got, err := s.Users().History(id)
			if err != nil || !reflect.DeepEqual(got, history) {
				t.Fatalf("user %s: history %v (err %v), want %v", id, got, err, history)
			}
			res, err := s.Users().Recommend(context.Background(), id, st, 10)
			if err != nil {
				t.Fatal(err)
			}
			if w := want.Recommend(history, 10); !sameRanking(res.Recommendations, w) {
				t.Fatalf("user %s %s: ranking %v, want %v", id, st, res.Recommendations, w)
			}
		}
	}
}

// TestStoreSeedCopiesSidecar: seeding a store with a sidecar-served library
// writes exactly the snapshot the serialiser would write of it, keyed like
// the sidecar — by copying the sidecar's bytes.
func TestStoreSeedCopiesSidecar(t *testing.T) {
	_, mapped, _ := seedSidecar(t, 31)
	s, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	stamped := s.Engine().Swap(mapped)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(s.snapPath(stamped.Epoch()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, expectedCopy(t, stamped)) {
		t.Fatal("the copied snapshot differs from the serialiser's image of the library")
	}
}

// TestStoreSnapshotPathTable: a swap — and a compaction before any ingest —
// copies the sidecar exactly when the library is its verified image, and
// serialises otherwise, logging why when the copy refused. Whichever path
// ran, the snapshot scrubs clean and recovers the swapped epoch serving like
// the parse of the source.
func TestStoreSnapshotPathTable(t *testing.T) {
	for _, tc := range []struct {
		name string
		// prepare returns the library to swap in, given the source and its
		// sidecar-served load, disturbing whatever the row is about.
		prepare func(t *testing.T, src string, mapped *Library) *Library
		compact bool   // trace a Compact after the swap instead of the swap
		want    string // "copy" or "serialise"
		refusal string // what the logged refusal names; "" for no log line
	}{
		{name: "sidecar-served seed", want: "copy"},
		{name: "compaction before any ingest", compact: true, want: "copy"},
		{name: "heap-built seed", want: "serialise",
			prepare: func(t *testing.T, src string, _ *Library) *Library { return parseReference(t, src) }},
		{name: "sidecar replaced by another source's", want: "serialise", refusal: "source key is",
			prepare: func(t *testing.T, src string, mapped *Library) *Library {
				other, _, _ := seedSidecar(t, 32)
				if err := os.Rename(other+SidecarSuffix, src+SidecarSuffix); err != nil {
					t.Fatal(err)
				}
				return mapped
			}},
		{name: "sidecar body byte flipped", want: "serialise", refusal: "checksum mismatch",
			prepare: func(t *testing.T, src string, mapped *Library) *Library {
				b, err := os.ReadFile(src + SidecarSuffix)
				if err != nil {
					t.Fatal(err)
				}
				b[len(b)/2] ^= 0x10
				replaceFile(t, src+SidecarSuffix, b)
				return mapped
			}},
		{name: "sidecar deleted", want: "serialise", refusal: "no such file",
			prepare: func(t *testing.T, src string, mapped *Library) *Library {
				if err := os.Remove(src + SidecarSuffix); err != nil {
					t.Fatal(err)
				}
				return mapped
			}},
		{name: "vocabulary grown before the swap", want: "serialise",
			prepare: func(t *testing.T, _ string, mapped *Library) *Library {
				// Another engine over the same library interns into its
				// vocabulary, which the serialiser persists and the sidecar
				// lacks.
				if err := NewEngineFromLibrary(mapped).AddImplementation("goal-000", "act-000", "a-name-never-seen"); err != nil {
					t.Fatal(err)
				}
				return mapped
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, mapped, oracle := seedSidecar(t, 31)
			lib := mapped
			if tc.prepare != nil {
				lib = tc.prepare(t, src, mapped)
			}
			dir := t.TempDir()
			inj := faultfs.NewInjector(nil)
			var logs bytes.Buffer
			s, err := OpenStore(dir, StoreOptions{FS: inj, Logger: log.New(&logs, "", 0)})
			if err != nil {
				t.Fatal(err)
			}
			seedPreSwap(t, s)

			inj.StartTrace()
			stamped := s.Engine().Swap(lib)
			if tc.compact {
				inj.StartTrace()
				if err := s.Compact(); err != nil {
					t.Fatal(err)
				}
			}
			trace := inj.Trace()
			if err := s.Err(); err != nil {
				t.Fatalf("persisting the swap: %v", err)
			}
			if got := snapshotWriter(t, trace, src+SidecarSuffix); got != tc.want {
				t.Fatalf("the snapshot was written by %s, want %s", got, tc.want)
			}
			refusals := strings.Count(logs.String(), "serialised, not copied")
			if tc.refusal == "" && refusals != 0 || tc.refusal != "" && (refusals != 1 || !strings.Contains(logs.String(), tc.refusal)) {
				t.Fatalf("store log %q, want %d refusal naming %q", logs.String(), min(len(tc.refusal), 1), tc.refusal)
			}
			path := s.snapPath(stamped.Epoch())
			if err := core.ScrubSnapshotFile(nil, path); err != nil {
				t.Fatal(err)
			}
			if tc.want == "copy" {
				got, err := os.ReadFile(path)
				if err != nil || !bytes.Equal(got, expectedCopy(t, stamped)) {
					t.Fatalf("the copied snapshot differs from the serialiser's image (err %v)", err)
				}
			}
			if tmps, _ := filepath.Glob(filepath.Join(dir, ".snap-*.tmp")); len(tmps) != 0 {
				t.Fatalf("temp files left behind: %v", tmps)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			s2, err := OpenStore(dir, StoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if !bytes.Equal(canonicalImage(t, s2.Engine().Snapshot()), canonicalImage(t, stamped)) {
				t.Fatal("the recovered library differs from the swapped one")
			}
			assertStoreServes(t, s2, oracle, stamped.Epoch())
		})
	}
}
